//! Property-based tests for the message-passing runtime.

use gtw_mpi::{FabricSpec, InterComm, MachineSpec, Payload, PointToPoint, ReduceOp, Tag, Universe};
use proptest::prelude::*;

const ECHO: Tag = Tag(1);

/// Whether `data` comes back from peer 0 of `p` — the rank itself on a
/// `Comm`, an [`echo`]ing child on an `InterComm` — with the same `bits`
/// and the right wire size, by the blocking pair and by the `try_` pair.
fn intact<P: PointToPoint, T: Payload>(p: &P, data: &[T], bits: fn(T) -> u64) -> bool {
    let both = [false, true].map(|tried| {
        let (back, status) = if tried {
            p.try_send(0, ECHO, data).expect("peer is alive");
            p.try_recv::<T>(0, ECHO, None).expect("peer is alive")
        } else {
            p.send(0, ECHO, data);
            p.recv::<T>(0, ECHO)
        };
        status.bytes == std::mem::size_of_val(data)
            && back.iter().map(|&x| bits(x)).eq(data.iter().map(|&x| bits(x)))
    });
    both == [true; 2] // every round trip is made: the child expects two
}

/// Return the parent's next two `T` messages to it, receiving one by
/// `recv` and one by `try_recv`, answering by the other kind of send.
fn echo<T: Payload>(parent: &InterComm) {
    let (data, _) = parent.recv::<T>(0, ECHO);
    parent.try_send(0, ECHO, &data).expect("parent is alive");
    let (data, _) = parent.try_recv::<T>(0, ECHO, None).expect("parent is alive");
    parent.send(0, ECHO, &data);
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

    /// Every element type arrives bit for bit — any bit pattern (so every
    /// NaN payload, both zeros, `i64::MIN`), any length including empty —
    /// through `send`/`recv` and `try_send`/`try_recv`, to self on a
    /// `Comm` and to a spawned child and back over an `InterComm`; and
    /// through a `bcast` to each of 4 ranks.
    #[test]
    fn payload_round_trips_every_element_type(
        words in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let edges = [0, 1 << 63, 0x7ff8_0000_0000_0001, 0xfff0_0000_0000_0000, 0x7fc0_0001_8000_0000];
        let words: Vec<u64> = words.into_iter().chain(edges).collect();
        for words in [words, vec![]] {
            let f64s: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
            let f32s: Vec<f32> = words.iter().map(|&w| f32::from_bits((w >> 32) as u32)).collect();
            let i64s: Vec<i64> = words.iter().map(|&w| w as i64).collect();
            let u8s: Vec<u8> = words.iter().map(|&w| w as u8).collect();

            let (u64s, f64s_sent) = (words.clone(), f64s.clone());
            let intact = Universe::run(1, move |comm| {
                let t3e = MachineSpec::new("T3E", FabricSpec::t3e_torus());
                let kids = comm.spawn(1, t3e, |child| {
                    let parent = child.parent().expect("child has a parent");
                    echo::<u8>(&parent);
                    echo::<u64>(&parent);
                    echo::<i64>(&parent);
                    echo::<f32>(&parent);
                    echo::<f64>(&parent);
                });
                [
                    // `&`, not `&&`: the child echoes whether or not the first held.
                    intact(&comm, &u8s, u64::from) & intact(&kids, &u8s, u64::from),
                    intact(&comm, &u64s, |x| x) & intact(&kids, &u64s, |x| x),
                    intact(&comm, &i64s, |x| x as u64) & intact(&kids, &i64s, |x| x as u64),
                    intact(&comm, &f32s, |x| x.to_bits().into())
                        & intact(&kids, &f32s, |x| x.to_bits().into()),
                    intact(&comm, &f64s_sent, f64::to_bits) & intact(&kids, &f64s_sent, f64::to_bits),
                ]
            });
            prop_assert_eq!(intact[0], [true; 5], "u8, u64, i64, f32, f64 of {:?}", words);

            let copies = Universe::run(4, move |comm| {
                comm.bcast(2, if comm.rank() == 2 { &f64s[..] } else { &[] })
            });
            for (rank, copy) in copies.iter().enumerate() {
                let arrived: Vec<u64> = copy.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(arrived, words.clone(), "bcast at rank {}", rank);
            }
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
}
