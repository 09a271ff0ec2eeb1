//! Prints the runtime-dispatched SIMD level (`scalar` / `avx2` /
//! `avx512`) and exits. CI's kernel-dispatch matrix uses it to assert
//! that the dispatcher actually selected the level the host ISA offers
//! (and that `MRP_NO_SIMD=1` pins it to `scalar`). It takes no flags.

fn main() {
    mrp_experiments::Args::parse_known(&[]);
    println!("{}", mrp_core::simd::level().name());
}
