//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use mrp_cache::policies::{Lru, PlruTree, RripState, Srrip, RRIP_MAX};
use mrp_cache::{AccessResult, Cache, CacheConfig};
use mrp_core::context::PcHistory;
use mrp_core::feature::{Feature, FeatureKind};
use mrp_core::mpppb::{Mpppb, MpppbConfig};
use mrp_core::sampler::{clamp_confidence, partial_tag, Sampler};
use mrp_trace::generators::ZipfSampler;
use mrp_trace::MemoryAccess;

fn arbitrary_feature() -> impl Strategy<Value = Feature> {
    (1u8..=18, 0u8..7, any::<bool>(), 0u8..32, 1u8..32, 0u8..=17).prop_map(
        |(assoc, kind_tag, xor, begin, width, which)| {
            let end = begin.saturating_add(width).min(63);
            let kind = match kind_tag {
                0 => FeatureKind::Pc { begin, end, which },
                1 => FeatureKind::Address { begin, end },
                2 => FeatureKind::Bias,
                3 => FeatureKind::Burst,
                4 => FeatureKind::Insert,
                5 => FeatureKind::LastMiss,
                _ => FeatureKind::Offset {
                    begin: begin.min(5),
                    end: end.min(5).max(begin.min(5)),
                },
            };
            Feature::new(assoc, kind, xor)
        },
    )
}

proptest! {
    #[test]
    fn feature_indices_always_fit_their_table(
        feature in arbitrary_feature(),
        pc in any::<u64>(),
        address in any::<u64>(),
        is_mru in any::<bool>(),
        is_insert in any::<bool>(),
        last_miss in any::<bool>(),
        history in proptest::collection::vec(any::<u64>(), 0..18),
    ) {
        let ctx = mrp_core::context::FeatureContext {
            pc,
            address,
            pc_history: &history,
            is_mru,
            is_insert,
            last_miss,
        };
        let index = feature.index(&ctx) as usize;
        prop_assert!(index < feature.table_size(), "{feature}: {index} >= {}", feature.table_size());
    }

    #[test]
    fn compiled_plan_offsets_match_reference_indexing(
        features in proptest::collection::vec(arbitrary_feature(), 1..12),
        pc in any::<u64>(),
        address in any::<u64>(),
        is_mru in any::<bool>(),
        is_insert in any::<bool>(),
        last_miss in any::<bool>(),
        history in proptest::collection::vec(any::<u64>(), 0..18),
    ) {
        // The compiled plan is a pure lowering of `Feature::index`: for
        // every feature set and context, each emitted arena offset must
        // equal the feature's own base (cumulative table sizes) plus the
        // reference per-table index.
        let ctx = mrp_core::context::FeatureContext {
            pc,
            address,
            pc_history: &history,
            is_mru,
            is_insert,
            last_miss,
        };
        let plan = mrp_core::FeaturePlan::new(&features);
        let mut offsets = Vec::new();
        plan.compute_offsets(&ctx, &mut offsets);
        prop_assert_eq!(offsets.len(), features.len());
        let mut base = 0usize;
        for (feature, &offset) in features.iter().zip(&offsets) {
            let expected = base + feature.index(&ctx) as usize;
            prop_assert_eq!(
                offset as usize, expected,
                "{}: arena offset {} != base {} + reference index {}",
                feature, offset, base, feature.index(&ctx)
            );
            base += feature.table_size();
        }
        prop_assert_eq!(base, plan.arena_len());
    }

    #[test]
    fn feature_display_is_stable_notation(feature in arbitrary_feature()) {
        let s = feature.to_string();
        prop_assert!(s.ends_with(')'));
        prop_assert!(s.contains('('));
        // The A parameter always leads the list.
        let inside = &s[s.find('(').unwrap() + 1..s.len() - 1];
        let first: u8 = inside.split(',').next().unwrap().parse().unwrap();
        prop_assert_eq!(first, feature.assoc);
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        blocks in proptest::collection::vec(0u64..64, 1..300),
    ) {
        let config = CacheConfig::new(64 * 8, 4); // 2 sets x 4 ways
        let mut cache = Cache::new(
            config,
            Box::new(Lru::new(config.sets(), config.associativity())),
        );
        for &b in &blocks {
            let _ = cache.access(&MemoryAccess::load(0x400000, b * 64), false);
            prop_assert!(cache.resident_blocks() <= 8);
        }
    }

    #[test]
    fn lru_cache_hits_iff_block_within_reuse_distance(
        blocks in proptest::collection::vec(0u64..16, 2..100),
    ) {
        // Fully-associative-per-set check: with 1 set of 8 ways, an access
        // hits iff fewer than 8 distinct blocks intervened since last use.
        let config = CacheConfig::new(64 * 8, 8);
        let mut cache = Cache::new(
            config,
            Box::new(Lru::new(config.sets(), config.associativity())),
        );
        let mut last_seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (i, &b) in blocks.iter().enumerate() {
            let expected_hit = last_seen.get(&b).map(|&j| {
                let distinct: std::collections::HashSet<u64> =
                    blocks[j + 1..i].iter().copied().collect();
                distinct.len() < 8
            });
            let result = cache.access(&MemoryAccess::load(0x400000, b * 64), false);
            if let Some(expected) = expected_hit {
                prop_assert_eq!(result.is_hit(), expected, "access {} block {}", i, b);
            }
            last_seen.insert(b, i);
        }
    }

    #[test]
    fn plru_set_position_round_trips(way in 0u32..16, position in 0u32..16) {
        let mut tree = PlruTree::new(1, 16);
        tree.set_position(0, way, position);
        prop_assert_eq!(tree.position_of(0, way), position);
    }

    #[test]
    fn plru_victim_is_always_a_valid_way(
        touches in proptest::collection::vec((0u32..16, 0u32..16), 1..64),
    ) {
        let mut tree = PlruTree::new(1, 16);
        for (way, position) in touches {
            tree.set_position(0, way, position);
            prop_assert!(tree.victim(0) < 16);
        }
    }

    #[test]
    fn rrip_victim_selection_terminates_and_is_valid(
        values in proptest::collection::vec(0u8..=RRIP_MAX, 4),
    ) {
        let mut state = RripState::new(1, 4);
        for (w, &v) in values.iter().enumerate() {
            state.set(0, w as u32, v);
        }
        let victim = state.victim(0);
        prop_assert!(victim < 4);
        prop_assert_eq!(state.get(0, victim), RRIP_MAX);
    }

    #[test]
    fn srrip_never_chooses_out_of_range_victims(
        blocks in proptest::collection::vec(0u64..64, 1..200),
    ) {
        let config = CacheConfig::new(64 * 16, 4);
        let mut cache = Cache::new(config, Box::new(Srrip::new(config.sets(), config.associativity())));
        for &b in &blocks {
            let _ = cache.access(&MemoryAccess::load(1, b * 64), false);
        }
        prop_assert!(cache.resident_blocks() <= 16);
    }

    #[test]
    fn pc_history_keeps_most_recent_first(pcs in proptest::collection::vec(any::<u64>(), 1..50)) {
        let mut h = PcHistory::new();
        for &pc in &pcs {
            h.push(pc);
        }
        let slice = h.as_slice();
        prop_assert_eq!(slice[0], *pcs.last().unwrap());
        let expect_len = pcs.len().min(mrp_core::context::HISTORY_DEPTH);
        prop_assert_eq!(slice.len(), expect_len);
        for (i, &pc) in slice.iter().enumerate() {
            prop_assert_eq!(pc, pcs[pcs.len() - 1 - i]);
        }
    }

    #[test]
    fn sampler_training_events_reference_valid_features(
        tags in proptest::collection::vec(0u16..32, 1..200),
        assocs in proptest::collection::vec(1u8..=18, 1..8),
    ) {
        let features = assocs.len();
        let mut sampler = Sampler::new(2, assocs, 50);
        let mut events = Vec::new();
        for (i, &tag) in tags.iter().enumerate() {
            events.clear();
            let indices: Vec<u16> = (0..features).map(|f| (f as u16 + tag) % 4).collect();
            let _ = sampler.access((i % 2) as u32, tag, &indices, 0, &mut events);
            for &e in &events {
                prop_assert!(usize::from(mrp_core::sampler::event_feature(e)) < features);
                prop_assert!(mrp_core::sampler::event_index(e) < 4);
            }
            prop_assert!(sampler.set_len((i % 2) as u32) <= 18);
        }
    }

    #[test]
    fn confidence_clamp_is_idempotent_and_bounded(sum in any::<i32>()) {
        let clamped = clamp_confidence(sum);
        prop_assert!((-256..=255).contains(&i32::from(clamped)));
        prop_assert_eq!(clamp_confidence(i32::from(clamped)), clamped);
    }

    #[test]
    fn partial_tags_are_deterministic(block in any::<u64>()) {
        prop_assert_eq!(partial_tag(block), partial_tag(block));
    }

    #[test]
    fn mpppb_cache_preserves_inclusion_of_resident_blocks(
        blocks in proptest::collection::vec(0u64..128, 1..300),
    ) {
        // Whatever the policy decides, a block that was just filled (not
        // bypassed) must be resident, and hits must find it.
        let llc = CacheConfig::new(64 * 16 * 4, 16); // 4 sets
        let mut config = MpppbConfig::single_thread(&llc);
        config.sampler_sets = 4;
        let mut cache = Cache::new(llc, Box::new(Mpppb::new(config, &llc)));
        for &b in &blocks {
            let access = MemoryAccess::load(0x400000 + (b % 7) * 4, b * 64);
            match cache.access(&access, false) {
                AccessResult::Miss { .. } => prop_assert!(cache.probe(b)),
                AccessResult::Hit => prop_assert!(cache.probe(b)),
                AccessResult::Bypassed => prop_assert!(!cache.probe(b)),
            }
        }
    }

    #[test]
    fn soa_cache_matches_shadow_reference_on_random_streams(
        policy_tag in 0u8..3,
        accesses in proptest::collection::vec((0u64..64, 0u64..7, any::<bool>()), 1..200),
    ) {
        // The optimized SoA cache and the naive `Option<u64>`-slot shadow
        // reference must stay bit-equal on arbitrary short streams — the
        // same property the `verify` binary checks at fuzz scale, here
        // under proptest's own shrinking.
        let llc = CacheConfig::new(64 * 8, 4); // 2 sets x 4 ways
        let build = move |cfg: &CacheConfig| -> Box<dyn mrp_cache::ReplacementPolicy + Send> {
            match policy_tag {
                0 => Box::new(Lru::new(cfg.sets(), cfg.associativity())),
                1 => Box::new(Srrip::new(cfg.sets(), cfg.associativity())),
                _ => Box::new(mrp_cache::policies::TreePlru::new(cfg.sets(), cfg.associativity())),
            }
        };
        let stream: Vec<(MemoryAccess, bool)> = accesses
            .iter()
            .map(|&(block, pc_site, is_prefetch)| {
                (MemoryAccess::load(0x400000 + pc_site * 4, block * 64), is_prefetch)
            })
            .collect();
        let (report, _) = mrp_verify::run_lockstep(&llc, "properties", &build, &stream);
        prop_assert!(report.is_clean(), "divergence:\n{}", report);
    }

    #[test]
    fn lane_kernels_match_reference_indexing_at_every_level(
        features in proptest::collection::vec(arbitrary_feature(), 1..12),
        pc in any::<u64>(),
        address in any::<u64>(),
        is_mru in any::<bool>(),
        is_insert in any::<bool>(),
        last_miss in any::<bool>(),
        history in proptest::collection::vec(any::<u64>(), 0..18),
    ) {
        // The lane-SoA kernels (scalar and, where the machine has it,
        // AVX2) are alternative evaluations of the same compiled plan:
        // each level's offsets must equal the interpretive
        // `Feature::index` reference bit for bit.
        let ctx = mrp_core::context::FeatureContext {
            pc,
            address,
            pc_history: &history,
            is_mru,
            is_insert,
            last_miss,
        };
        let plan = mrp_core::FeaturePlan::new(&features);
        let mut reference = Vec::new();
        let mut base = 0u16;
        for feature in &features {
            reference.push(base + feature.index(&ctx));
            base += feature.table_size() as u16;
        }
        let mut offsets = Vec::new();
        plan.compute_offsets_compiled(&ctx, &mut offsets);
        prop_assert_eq!(&offsets, &reference, "compiled path diverged");
        for &level in mrp_core::simd::available_levels() {
            plan.compute_offsets_with(level, &ctx, &mut offsets);
            prop_assert_eq!(
                &offsets, &reference,
                "{} lane kernel diverged from reference", level.name()
            );
        }
    }

    #[test]
    fn confidence_kernels_agree_across_levels(
        features in proptest::collection::vec(arbitrary_feature(), 1..12),
        weight_seed in any::<u64>(),
        pc in any::<u64>(),
        address in any::<u64>(),
    ) {
        // The gather-sum confidence kernel family must agree across SIMD
        // levels (AVX2 vs scalar where available) and with a plain
        // per-table weight sum, on randomized weight arenas.
        let plan = mrp_core::FeaturePlan::new(&features);
        let mut tables = mrp_core::tables::WeightTables::new(&features);
        let (min, max) = (mrp_core::tables::WEIGHT_MIN, mrp_core::tables::WEIGHT_MAX);
        let span = (i32::from(max) - i32::from(min) + 1) as u64;
        let mut state = weight_seed;
        for offset in 0..tables.arena_len() {
            state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            let target = i32::from(min) + ((state >> 33) % span) as i32;
            for _ in 0..target.abs() {
                if target >= 0 {
                    tables.increment_at(offset as u16);
                } else {
                    tables.decrement_at(offset as u16);
                }
            }
        }
        let ctx = mrp_core::context::FeatureContext {
            pc,
            address,
            pc_history: &[],
            is_mru: false,
            is_insert: false,
            last_miss: false,
        };
        let mut offsets = Vec::new();
        plan.compute_offsets(&ctx, &mut offsets);
        let expected: i32 = features
            .iter()
            .enumerate()
            .map(|(t, f)| i32::from(tables.weight(t, f.index(&ctx))))
            .sum();
        for &level in mrp_core::simd::available_levels() {
            prop_assert_eq!(
                tables.confidence_with(level, &offsets),
                expected,
                "{} gather-sum diverged from per-table weight sum", level.name()
            );
        }
    }

    #[test]
    fn batched_apply_equals_sequential_saturating_updates(
        features in proptest::collection::vec(arbitrary_feature(), 1..8),
        raw_events in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..300),
        pool_cap in 1u32..=u16::MAX as u32,
    ) {
        // Applying a whole event buffer must resolve duplicate-offset
        // conflicts exactly as a sequential increment_at/decrement_at
        // fold. `pool_cap` sometimes squeezes all events into a handful
        // of offsets, making same- and mixed-sign duplicate runs common.
        use mrp_core::tables::WeightTables;
        let arena = WeightTables::new(&features).arena_len() as u32;
        let pool = arena.min(pool_cap);
        let events: Vec<u32> = raw_events
            .iter()
            .map(|&(o, dec)| ((u32::from(o) % pool) << 1) | u32::from(dec))
            .collect();
        let mut reference = WeightTables::new(&features);
        for &e in &events {
            let offset = (e >> 1) as u16;
            if e & 1 == 1 {
                reference.decrement_at(offset);
            } else {
                reference.increment_at(offset);
            }
        }
        let mut tables = WeightTables::new(&features);
        tables.apply_events(&events);
        for (t, f) in features.iter().enumerate() {
            for i in 0..f.table_size() as u16 {
                prop_assert_eq!(
                    tables.weight(t, i), reference.weight(t, i),
                    "buffer apply diverged at table {} index {}", t, i
                );
            }
        }
    }

    #[test]
    fn saturating_runs_round_trip_through_the_fold(
        m in 1usize..200,
        initial in i32::from(mrp_core::tables::WEIGHT_MIN)..=i32::from(mrp_core::tables::WEIGHT_MAX),
    ) {
        // m increments followed by m decrements on one offset: the
        // increment run may pin at WEIGHT_MAX, making the round trip
        // order-dependent — ending at clamp(clamp(initial + m) - m),
        // not back at `initial`. The in-order fold must preserve exactly
        // that.
        use mrp_core::tables::{apply_events_i8, WEIGHT_MAX, WEIGHT_MIN};
        let mut weights = [initial as i8];
        let events: Vec<u32> = (0..2 * m).map(|i| u32::from(i >= m)).collect();
        let up = (initial + m as i32).clamp(i32::from(WEIGHT_MIN), i32::from(WEIGHT_MAX));
        let expected = (up - m as i32).clamp(i32::from(WEIGHT_MIN), i32::from(WEIGHT_MAX));
        apply_events_i8(&mut weights, &events, WEIGHT_MIN, WEIGHT_MAX);
        prop_assert_eq!(
            i32::from(weights[0]), expected,
            "saturation round-trip diverged (m={}, initial={})", m, initial
        );
    }

    #[test]
    fn guided_zipf_rank_equals_plain_binary_search(
        n in 1usize..5000,
        theta_milli in 0u32..2000,
        draws in proptest::collection::vec(0u64..(1u64 << 53), 1..50),
    ) {
        // The bucketed guide index is a pure accelerator over the CDF:
        // for any uniform draw it must return the same rank as an
        // unaccelerated binary search.
        let sampler = ZipfSampler::new(n, f64::from(theta_milli) / 1000.0);
        for &v in &draws {
            let u = v as f64 / (1u64 << 53) as f64;
            prop_assert_eq!(
                sampler.sample_at(u),
                sampler.rank_by_binary_search(u),
                "n={} theta={} u={}", n, theta_milli, u
            );
        }
    }
}
