//! Equivalence suite for the topology-aware allreduce (gtw-mpi).
//!
//! The multi-level allreduce changes the *message pattern* — intra-site
//! reduce, one WAN crossing per foreign site, intra-site broadcast —
//! but must never change the *result*: both the flat and the topo paths
//! fold along the same canonical site tree, so every reduction is
//! bit-identical between them, including non-finite and signed-zero
//! payloads where float non-associativity would otherwise show.
//!
//! Property-tested over random rank counts, site layouts, and payloads;
//! the `try_*` fault-aware variants are additionally held, on both
//! paths, to the scheduling-invariant outcome rules of a seeded crash
//! plan (guaranteed-complete early rounds, guaranteed-failed rounds
//! once the victim stops contributing, canonical bits on every success,
//! monotone failure), with exact flat/topo trajectory equality whenever
//! the plan never fires.

use std::time::Duration;

use gtw_desim::fault::ProcessFaultPlan;
use gtw_mpi::{CommTopology, FabricSpec, MachineSpec, Placement, ReduceOp, Universe};
use proptest::prelude::*;

const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Three-machine pool the random site layouts draw from: two real
/// supercomputer fabrics plus an SMP, joined by the testbed WAN.
fn placement_from(machine_of: &[usize]) -> Placement {
    let machines = vec![
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        MachineSpec::new("SMP", FabricSpec::smp_shared()),
    ];
    Placement::custom(machines, machine_of.to_vec(), FabricSpec::wan_testbed())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Payload values weighted toward the cases where fold order matters:
/// NaN, signed zero, infinities, and magnitudes that swallow addends.
fn payload() -> impl Strategy<Value = f64> {
    ((0usize..16), -1.0e3..1.0e3f64).prop_map(|(k, x)| match k {
        0 | 1 => f64::NAN,
        2 | 3 => -0.0,
        4 => 0.0,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7 | 8 => 1.0e16,
        9 | 10 => -1.0e16,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn topo_collectives_are_bit_identical_to_flat(
        n in 2usize..=8,
        sites in proptest::collection::vec(0usize..3, 8),
        len in 1usize..=3,
        raw in proptest::collection::vec(payload(), 24),
        root_pick in 0usize..8,
    ) {
        let placement = placement_from(&sites[..n]);
        let contribs: Vec<Vec<f64>> =
            (0..n).map(|r| raw[r * len..(r + 1) * len].to_vec()).collect();
        let topo_model = CommTopology::from_placement(&placement);

        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let expect = bits(&topo_model.canonical_fold(op, &contribs));
            let c = contribs.clone();
            let flat = Universe::run_placed(placement.clone(), move |comm| {
                comm.allreduce_f64s(op, &c[comm.rank()])
            });
            let c = contribs.clone();
            let topo = Universe::run_placed(placement.clone(), move |comm| {
                comm.allreduce_topo_f64s(op, &c[comm.rank()])
            });
            for r in 0..n {
                prop_assert_eq!(bits(&flat[r]), expect.clone(), "flat rank {} op {:?}", r, op);
                prop_assert_eq!(bits(&topo[r]), expect.clone(), "topo rank {} op {:?}", r, op);
            }
        }

        // Broadcast from a random root: every rank must hold the root's
        // exact bits.
        let root = root_pick % n;
        let data = contribs[root].clone();
        let expect = bits(&data);
        let flat = Universe::run_placed(placement.clone(), move |comm| {
            let payload = if comm.rank() == root { data.clone() } else { vec![] };
            comm.bcast(root, &payload)
        });
        for (r, got) in flat.iter().enumerate() {
            prop_assert_eq!(bits(got), expect.clone(), "flat bcast rank {}", r);
        }
    }

    #[test]
    fn try_variants_match_flat_outcomes_under_seeded_crash_plans(
        n in 3usize..=6,
        sites in proptest::collection::vec(0usize..3, 6),
        raw in proptest::collection::vec(payload(), 6),
        victim_pick in 0usize..6,
        fire_at in 1u64..=4,
    ) {
        // Both try-paths poll the injector exactly once per collective
        // (at entry), so the same plan fires at the same round on either
        // path. Ranks run as real threads, so a slow rank may observe
        // the victim's death mid-round (its in-flight claim aborts when
        // the mailboxes are poisoned) — which rounds those are is
        // scheduling-dependent. What IS invariant, and asserted on both
        // paths: a round can only complete with the canonical bits;
        // failures are monotone (a dead victim never comes back); a
        // rank entering round r+1 proves round r-1 completed globally,
        // so every round up to fire_at-3 succeeds everywhere; and the
        // victim never contributes to rounds >= fire_at-1, so those
        // fail everywhere. When the plan never fires, the flat and topo
        // trajectories must be exactly identical.
        const ROUNDS: u64 = 3;
        let placement = placement_from(&sites[..n]);
        let victim = victim_pick % n;
        let outcomes = |topo: bool| {
            let mut plan = ProcessFaultPlan::new(0xC011_EC71);
            plan.crash_after_ops(victim, fire_at);
            let u = Universe::new();
            u.install_process_faults(&plan);
            let raw = raw.clone();
            let out = u.launch_and_join(placement.clone(), move |comm| {
                let contrib = [raw[comm.rank()]];
                (0..ROUNDS)
                    .map(|_| {
                        let r = if topo {
                            comm.try_allreduce_topo_f64s(
                                ReduceOp::Sum,
                                &contrib,
                                Some(OP_TIMEOUT),
                            )
                        } else {
                            comm.try_allreduce_f64s(ReduceOp::Sum, &contrib, Some(OP_TIMEOUT))
                        };
                        match r {
                            Ok(v) => (true, bits(&v)),
                            Err(_) => (false, Vec::new()),
                        }
                    })
                    .collect::<Vec<_>>()
            });
            u.join_spawned();
            out
        };
        let flat = outcomes(false);
        let topo = outcomes(true);
        let contribs: Vec<Vec<f64>> = (0..n).map(|r| vec![raw[r]]).collect();
        let expect =
            bits(&CommTopology::from_placement(&placement).canonical_fold(ReduceOp::Sum, &contribs));
        for (name, traj) in [("flat", &flat), ("topo", &topo)] {
            for (r, rounds) in traj.iter().enumerate() {
                let mut failed = false;
                for (round, (ok, b)) in rounds.iter().enumerate() {
                    let round = round as u64;
                    if *ok {
                        prop_assert!(
                            !failed,
                            "{} rank {} round {} recovered after an error", name, r, round
                        );
                        prop_assert_eq!(
                            b, &expect,
                            "{} rank {} round {} bits diverge", name, r, round
                        );
                    } else {
                        failed = true;
                    }
                    if round + 3 <= fire_at {
                        prop_assert!(
                            *ok,
                            "{} rank {} round {} completed globally before victim {} \
                             could die at op {}", name, r, round, victim, fire_at
                        );
                    }
                    if round + 1 >= fire_at {
                        prop_assert!(
                            !*ok,
                            "{} rank {} round {}: victim {} never contributes from op {}",
                            name, r, round, victim, fire_at
                        );
                    }
                }
            }
        }
        if fire_at > ROUNDS {
            // The plan never fires: a clean world, where the two paths
            // must agree round for round, bit for bit.
            prop_assert_eq!(&flat, &topo, "clean-run trajectories diverge");
        }
    }
}

#[test]
fn nan_and_signed_zero_payloads_are_bit_stable_across_paths() {
    // Deterministic pin of the nastiest payloads (the proptest above
    // reaches them probabilistically): NaN propagation, -0.0 vs 0.0
    // under min/max, inf + (-inf) = NaN under sum.
    let placement = Placement::split(
        6,
        2,
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    );
    let contribs: Vec<Vec<f64>> = vec![
        vec![f64::NAN, -0.0, 1.0],
        vec![0.0, 0.0, f64::INFINITY],
        vec![-0.0, 1.0, f64::NEG_INFINITY],
        vec![2.0, f64::NAN, 1.0e16],
        vec![-3.0, 4.0, -1.0],
        vec![5.0, -0.0, 1.0],
    ];
    let topo_model = CommTopology::from_placement(&placement);
    for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
        let expect = bits(&topo_model.canonical_fold(op, &contribs));
        let c = contribs.clone();
        let flat = Universe::run_placed(placement.clone(), move |comm| {
            comm.allreduce_f64s(op, &c[comm.rank()])
        });
        let c = contribs.clone();
        let topo = Universe::run_placed(placement.clone(), move |comm| {
            comm.allreduce_topo_f64s(op, &c[comm.rank()])
        });
        for r in 0..6 {
            assert_eq!(bits(&flat[r]), expect, "flat rank {r} {op:?}");
            assert_eq!(bits(&topo[r]), expect, "topo rank {r} {op:?}");
        }
    }
}

#[test]
fn try_variants_agree_with_blocking_results_on_clean_worlds() {
    // With no fault plan the try-topo allreduce is the blocking one plus
    // health checks: same bits, all Ok.
    let placement = Placement::split(
        5,
        2,
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    );
    let contribs: Vec<Vec<f64>> = (0..5).map(|r| vec![0.1 * (r as f64 + 1.0), f64::NAN]).collect();
    let c = contribs.clone();
    let blocking = Universe::run_placed(placement.clone(), move |comm| {
        comm.allreduce_f64s(ReduceOp::Sum, &c[comm.rank()])
    });
    let c = contribs.clone();
    let tried = Universe::run_placed(placement.clone(), move |comm| {
        comm.try_allreduce_topo_f64s(ReduceOp::Sum, &c[comm.rank()], Some(OP_TIMEOUT))
            .expect("clean world")
    });
    for (r, sum) in tried.iter().enumerate() {
        assert_eq!(bits(sum), bits(&blocking[r]), "rank {r}");
    }

    // What lets the topo allreduce keep one body for both forms: on a
    // clean world the blocking and the failure-aware entry move the same
    // messages. Per rank the result bits and the modeled cost are equal,
    // and so is the trace summary.
    let run = |guarded: bool| {
        let u = Universe::traced();
        let c = contribs.clone();
        let per_rank = u.launch_and_join(placement.clone(), move |comm| {
            let mine = &c[comm.rank()];
            let sum = if guarded {
                comm.try_allreduce_topo_f64s(ReduceOp::Sum, mine, Some(OP_TIMEOUT)).expect("clean")
            } else {
                comm.allreduce_topo_f64s(ReduceOp::Sum, mine)
            };
            let c = comm.comm_cost();
            let seconds = [c.seconds, c.intra_seconds, c.wan_seconds].map(f64::to_bits);
            (bits(&sum), (seconds, c.messages, c.wan_messages, c.bytes))
        });
        (per_rank, format!("{:?}", u.trace().summary(u.total_ranks())))
    };
    let (blocking, guarded) = (run(false), run(true));
    assert_eq!(blocking.0, guarded.0, "per-rank bits and CommCost");
    assert_eq!(blocking.1, guarded.1, "VampirSummary");
    assert!(blocking.0.iter().all(|(_, cost)| cost.1 > 0), "every rank was charged");
}

#[test]
fn topo_allreduce_crosses_the_wan_per_site_not_per_rank() {
    // The point of the topology layer: WAN crossings scale with sites,
    // not ranks. 8 ranks over 2 sites — flat charges every off-root-site
    // rank a round trip, topo only the one foreign site leader.
    let placement = Placement::split(
        8,
        4,
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    );
    let topo_model = CommTopology::from_placement(&placement);
    let flat_model = topo_model.flat_allreduce_wan_crossings();
    let topo_model_crossings = topo_model.topo_allreduce_wan_crossings();
    assert_eq!((flat_model, topo_model_crossings), (8, 2));

    let wan_sum = |topo: bool| -> u64 {
        Universe::run_placed(placement.clone(), move |comm| {
            let contrib = [comm.rank() as f64];
            if topo {
                comm.allreduce_topo_f64s(ReduceOp::Sum, &contrib);
            } else {
                comm.allreduce_f64s(ReduceOp::Sum, &contrib);
            }
            comm.comm_cost().wan_messages
        })
        .iter()
        .sum()
    };
    let flat_wan = wan_sum(false);
    let topo_wan = wan_sum(true);
    assert!(topo_wan < flat_wan, "topo {topo_wan} must beat flat {flat_wan}");
    // And the counts themselves, which `gtw-benchmark` reports as
    // `mpi.allreduce8.{flat,topo}_wan_messages` (over four rounds).
    assert_eq!((flat_wan, topo_wan), (16, 4));
    // Whatever end(s) of a WAN message the cost model charges, the
    // charge factor is common — the counts must sit in the modeled
    // sites-vs-ranks ratio exactly.
    assert_eq!(
        flat_wan * topo_model_crossings,
        topo_wan * flat_model,
        "flat {flat_wan} vs topo {topo_wan} off the modeled 8:2 ratio"
    );
}
