//! Property-based tests for the message-passing runtime.

use gtw_mpi::{Payload, PointToPoint, ReduceOp, Tag, Universe};
use proptest::prelude::*;

/// `T::decode(T::encode(v))` gives back `v` bit for bit, and `extra`
/// trailing bytes that do not make up a whole element give `None`.
fn round_trips<T: Payload>(v: &[T], extra: usize) -> bool {
    let bytes = T::encode(v);
    let mut ragged = bytes.to_vec();
    ragged.extend(std::iter::repeat_n(0u8, extra));
    let whole = extra % std::mem::size_of::<T>() == 0;
    T::decode(&bytes).is_some_and(|back| T::encode(&back) == bytes)
        && T::decode(&ragged.into()).is_some() == whole
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Allreduce(sum) equals the locally computed sum for any
    /// contribution values, on any world size.
    #[test]
    fn allreduce_sum_is_exact(n in 1usize..6,
                              values in proptest::collection::vec(-1e6f64..1e6, 6)) {
        let vals = values.clone();
        let out = Universe::run(n, move |comm| {
            comm.allreduce_f64s(ReduceOp::Sum, &[vals[comm.rank()]])[0]
        });
        let expect: f64 = values[..n].iter().sum();
        for v in out {
            prop_assert!((v - expect).abs() < 1e-6 * (1.0 + expect.abs()));
        }
    }

    /// Every element type round-trips through its wire layout bit for bit
    /// — any bit pattern (so every NaN payload, both zeros, `i64::MIN`),
    /// any length including empty — and a ragged tail is refused.
    #[test]
    fn payload_round_trips_every_element_type(
        words in proptest::collection::vec(any::<u64>(), 0..24),
        extra in 1usize..8,
    ) {
        let edges = [0, 1 << 63, 0x7ff8_0000_0000_0001, 0xfff0_0000_0000_0000, 0x7fc0_0001_8000_0000];
        let words: Vec<u64> = words.into_iter().chain(edges).collect();
        for words in [&words[..], &[]] {
            let f64s: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
            let f32s: Vec<f32> = words.iter().map(|&w| f32::from_bits((w >> 32) as u32)).collect();
            let i64s: Vec<i64> = words.iter().map(|&w| w as i64).collect();
            let u8s: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            prop_assert!(round_trips(&f64s, extra), "f64 {:?}", words);
            prop_assert!(round_trips(&f32s, extra), "f32 {:?}", words);
            prop_assert!(round_trips(words, extra), "u64 {:?}", words);
            prop_assert!(round_trips(&i64s, extra), "i64 {:?}", words);
            prop_assert!(round_trips(&u8s, extra), "u8 {:?}", words);
        }
    }

    /// A permutation routing: every rank sends to a permuted target and
    /// each rank receives exactly one message, whatever the permutation.
    #[test]
    fn permutation_routing_delivers_exactly_once(n in 2usize..6, shift in 1usize..5) {
        let out = Universe::run(n, move |comm| {
            let dst = (comm.rank() + shift) % comm.size();
            comm.send(dst, Tag(3), &[comm.rank() as u64]);
            let (v, _) = comm.recv::<u64>(gtw_mpi::ANY_SOURCE, Tag(3));
            v[0] as usize
        });
        // Received values form the inverse permutation.
        for (rank, &from) in out.iter().enumerate() {
            prop_assert_eq!((from + shift) % n, rank);
        }
    }

    /// Gather at any root collects every rank's payload in rank order.
    #[test]
    fn gather_orders_by_rank(n in 1usize..6, root_pick in 0usize..6) {
        let root = root_pick % n;
        let out = Universe::run(n, move |comm| {
            comm.gather(root, &[comm.rank() as f64 * 3.0])
        });
        let gathered = out[root].as_ref().unwrap();
        for (r, part) in gathered.iter().enumerate() {
            prop_assert_eq!(part[0], r as f64 * 3.0);
        }
        for (r, o) in out.iter().enumerate() {
            if r != root {
                prop_assert!(o.is_none());
            }
        }
    }

    /// Messages with the same (src, tag) arrive in send order regardless
    /// of payload sizes.
    #[test]
    fn non_overtaking(sizes in proptest::collection::vec(1usize..200, 1..20)) {
        let sizes2 = sizes.clone();
        let out = Universe::run(2, move |comm| {
            if comm.rank() == 0 {
                for (i, &sz) in sizes2.iter().enumerate() {
                    let payload = vec![i as u64; sz];
                    comm.send(1, Tag(7), &payload);
                }
                Vec::new()
            } else {
                (0..sizes2.len())
                    .map(|_| {
                        let (v, _) = comm.recv::<u64>(0, Tag(7));
                        v[0]
                    })
                    .collect::<Vec<u64>>()
            }
        });
        let received = &out[1];
        for (i, &v) in received.iter().enumerate() {
            prop_assert_eq!(v, i as u64);
        }
    }

    /// Splitting by any colour assignment partitions the world: subgroup
    /// sizes sum to n, and each subgroup's allreduce only sees its own
    /// members.
    #[test]
    fn split_partitions_the_world(n in 2usize..6, colors in proptest::collection::vec(0i64..3, 6)) {
        let colors2 = colors.clone();
        let out = Universe::run(n, move |comm| {
            let color = colors2[comm.rank()];
            let sub = comm.split(color, comm.rank() as i64);
            let members = sub.allreduce_f64s(ReduceOp::Sum, &[1.0])[0] as usize;
            (color, sub.size(), members)
        });
        for &(color, size, members) in &out {
            let expect = colors[..n].iter().filter(|&&c| c == color).count();
            prop_assert_eq!(size, expect);
            prop_assert_eq!(members, expect);
        }
    }
}
