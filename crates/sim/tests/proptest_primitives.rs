//! Property-based tests: the device primitives must agree with their std
//! reference implementations on arbitrary inputs, under both deterministic
//! and parallel host execution.

use gpma_sim::{primitives, Device, DeviceBuffer, DeviceConfig};
use proptest::prelude::*;

fn det() -> Device {
    Device::new(DeviceConfig::deterministic())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn radix_sort_sorts_any_input(mut data in prop::collection::vec(any::<u64>(), 0..2000)) {
        let d = det();
        let mut keys = DeviceBuffer::from_slice(&data);
        primitives::radix_sort_u64(&d, &mut keys);
        data.sort_unstable();
        prop_assert_eq!(keys.to_vec(), data);
    }

    #[test]
    fn sort_pairs_keeps_payloads_attached(data in prop::collection::vec(any::<u64>(), 0..1000)) {
        let d = det();
        let vals: Vec<u64> = data.iter().map(|&k| k.wrapping_mul(31).wrapping_add(7)).collect();
        let mut dk = DeviceBuffer::from_slice(&data);
        let mut dv = DeviceBuffer::from_slice(&vals);
        primitives::radix_sort_pairs_u64(&d, &mut dk, &mut dv);
        for (k, v) in dk.to_vec().into_iter().zip(dv.to_vec()) {
            prop_assert_eq!(v, k.wrapping_mul(31).wrapping_add(7));
        }
    }

    #[test]
    fn sort_pairs_skipping_constant_digits_matches_stable_sort(
        data in prop::collection::vec(any::<u64>(), 0..1200),
        shape in 0usize..4,
        mask in any::<u64>(),
        fill in any::<u64>(),
    ) {
        // Key sets whose digits are partly constant: bytes masked in from
        // `fill`, all-equal keys, only the top byte varying, full width.
        let keys: Vec<u64> = match shape {
            0 => data.iter().map(|&k| (k & mask) | (fill & !mask)).collect(),
            1 => vec![fill; data.len()],
            2 => data.iter().map(|&k| (k & (0xFF << 56)) | (fill >> 8)).collect(),
            _ => data,
        };
        let d = det();
        let mut dk = DeviceBuffer::from_slice(&keys);
        let mut dv = DeviceBuffer::from_slice(&(0..keys.len() as u64).collect::<Vec<_>>());
        primitives::radix_sort_pairs_u64(&d, &mut dk, &mut dv);
        // Stable reference: equal keys keep their input order.
        let mut expect: Vec<(u64, u64)> = keys.iter().copied().zip(0..).collect();
        expect.sort_by_key(|&(k, _)| k);
        let got: Vec<(u64, u64)> = dk.to_vec().into_iter().zip(dv.to_vec()).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn radix_runs_one_pass_per_varying_byte(
        varying in any::<u8>(),
        data in prop::collection::vec(any::<u64>(), 2..600),
        fill in any::<u64>(),
    ) {
        // Byte b of every key comes from `data` iff bit b of `varying` is
        // set; the first two keys force each such byte to really differ.
        let byte_mask = (0..8)
            .filter(|b| varying & (1 << b) != 0)
            .fold(0u64, |m, b| m | (0xFF << (8 * b)));
        let mut keys: Vec<u64> = data.iter().map(|&k| (k & byte_mask) | (fill & !byte_mask)).collect();
        keys[0] &= !byte_mask;
        keys[1] |= byte_mask;
        let d = det();
        let mut dk = DeviceBuffer::from_slice(&keys);
        primitives::radix_sort_u64(&d, &mut dk);
        let names: Vec<String> = d.metrics().recent.into_iter().map(|k| k.name).collect();
        let count = |name: &str| names.iter().filter(|n| *n == name).count();
        let k = varying.count_ones() as usize;
        prop_assert_eq!(count("radix_hist"), k);
        prop_assert_eq!(count("radix_scatter"), k);
        keys.sort_unstable();
        prop_assert_eq!(dk.to_vec(), keys);
    }

    #[test]
    fn scan_matches_prefix_sums(data in prop::collection::vec(0u32..1000, 0..3000)) {
        let d = det();
        let (out, total) = primitives::exclusive_scan_u32(&d, &DeviceBuffer::from_slice(&data));
        let mut acc = 0u32;
        let expect: Vec<u32> = data.iter().map(|&v| { let p = acc; acc += v; p }).collect();
        prop_assert_eq!(out.to_vec(), expect);
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn rle_reconstructs_input(data in prop::collection::vec(0u32..20, 0..1500)) {
        let d = det();
        let rle = primitives::run_length_encode_u32(&d, &DeviceBuffer::from_slice(&data));
        let mut rebuilt = Vec::new();
        for (u, c) in rle.unique.to_vec().into_iter().zip(rle.counts.to_vec()) {
            rebuilt.extend(std::iter::repeat_n(u, c as usize));
        }
        prop_assert_eq!(rebuilt, data);
    }

    #[test]
    fn compact_equals_filter(data in prop::collection::vec(any::<u64>(), 0..1500),
                             keep_mod in 1u64..7) {
        let d = det();
        let flags: Vec<u32> = data.iter().map(|&v| (v % keep_mod == 0) as u32).collect();
        let out = primitives::compact_flagged(
            &d,
            &DeviceBuffer::from_slice(&data),
            &DeviceBuffer::from_slice(&flags),
        );
        let expect: Vec<u64> = data.iter().copied().filter(|&v| v % keep_mod == 0).collect();
        prop_assert_eq!(out.to_vec(), expect);
    }

    #[test]
    fn reduce_matches_sum(data in prop::collection::vec(0u64..1_000_000, 0..3000)) {
        let d = det();
        let got = primitives::reduce_u64(&d, &DeviceBuffer::from_slice(&data));
        prop_assert_eq!(got, data.iter().sum::<u64>());
    }

    #[test]
    fn parallel_execution_is_equivalent(data in prop::collection::vec(any::<u64>(), 1..1200)) {
        let par = Device::new(DeviceConfig { host_parallelism: 4, ..DeviceConfig::default() });
        let mut a = DeviceBuffer::from_slice(&data);
        primitives::radix_sort_u64(&par, &mut a);
        let det_dev = det();
        let mut b = DeviceBuffer::from_slice(&data);
        primitives::radix_sort_u64(&det_dev, &mut b);
        prop_assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn cost_model_is_deterministic(n in 1usize..3000, work in 1u64..100) {
        let run = || {
            let d = det();
            let buf = DeviceBuffer::<u64>::new(n);
            let s = d.launch("k", n, |lane| {
                buf.set(lane, lane.tid, lane.tid as u64);
                lane.work(work);
            });
            s.cycles
        };
        prop_assert_eq!(run(), run());
    }
}
