//! What a message *costs* must not depend on how its buffer travels
//! between two threads, nor on code it does not run: every rank's
//! `CommCost` and the `VampirSummary` of two fixed scripts on a 2-site
//! placement. The first sends every element type point to point and runs
//! each blocking collective; `byte_len()` is `count × elem_bytes`, so
//! wire bytes, modeled seconds and the trace are those of the encoded
//! message. The second runs the failure-aware sends, receives and
//! collectives under a `Slow` plan, and a spawn round trip. Both were
//! captured on the commit before the topology broadcast and barrier were
//! deleted, with those two calls taken out of each script (earlier forms
//! pinned the byte-encoded path, the per-handle books, and the scripts
//! before the revoke/shrink layer, `dup`/`split` and the uncalled
//! collectives went).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use gtw_desim::fault::ProcessFaultPlan;
use gtw_desim::{Schedule, SimTime, Window};
use gtw_mpi::{
    CommCost, FabricSpec, MachineSpec, Placement, PointToPoint, ReduceOp, Tag, Universe,
};

/// Per rank: `(seconds, intra_seconds, wan_seconds)`, then
/// `(messages, wan_messages, bytes)`.
const EXPECTED: [([f64; 3], [u64; 3]); 4] = [
    ([0.025523565714285722, 1.3665714285714285e-5, 0.02550990000000001], [30, 17, 530]),
    ([0.019522232380952385, 1.3665714285714283e-5, 0.01950856666666667], [26, 13, 490]),
    ([0.02595705238095239, 0.0004468857142857143, 0.02551016666666667], [28, 17, 546]),
    ([0.01995518571428572, 0.0004468857142857143, 0.019508300000000003], [24, 13, 490]),
];

const EXPECTED_SUMMARY: &str = "VampirSummary { ranks: 4, \
    messages: [[0, 9, 4, 2], [4, 0, 9, 2], [3, 1, 0, 8], [8, 1, 3, 0]], \
    bytes: [[0, 161, 72, 48], [72, 0, 169, 56], [48, 16, 0, 161], [129, 16, 80, 0]], \
    sends: [15, 15, 12, 12], recvs: [9, 9, 12, 9], collectives: [5, 5, 5, 5] }";

/// Two ranks on a T3E, two on an SP2, joined by the testbed WAN.
fn two_sites() -> Placement {
    Placement::split(
        4,
        2,
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    )
}

type Books = ([f64; 3], [u64; 3]);

fn books(c: CommCost) -> Books {
    ([c.seconds, c.intra_seconds, c.wan_seconds], [c.messages, c.wan_messages, c.bytes])
}

/// Integers exact; the seconds within 1e-12 relative — they are summed in
/// the order messages were claimed, a root claims contributions in
/// arrival order, and float addition is not associative: two runs may
/// differ in the last bit.
fn assert_books(what: &str, got: &Books, want: &Books) {
    assert_eq!(got.1, want.1, "{what}: messages, WAN messages, bytes");
    for (g, w) in got.0.iter().zip(want.0) {
        assert!((g - w).abs() <= 1e-12 * w, "{what}: {g:e} seconds, pinned {w:e}");
    }
}

#[test]
fn comm_cost_and_trace_are_those_of_the_byte_encoded_path() {
    let u = Universe::traced();
    let costs = u.launch_and_join(two_sites(), |comm| {
        let (me, n) = (comm.rank(), comm.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        comm.send(right, Tag(1), &[me as u8; 5]);
        comm.send(right, Tag(2), &[me as u64; 3]);
        comm.send(right, Tag(3), &[-(me as i64); 2]);
        comm.send(right, Tag(4), &[me as f32; 7]);
        comm.send(right, Tag(5), &[me as f64; 4]);
        comm.send::<f64>(right, Tag(6), &[]);
        assert_eq!(comm.recv::<u8>(left, Tag(1)).1.bytes, 5);
        assert_eq!(comm.recv::<u64>(left, Tag(2)).1.bytes, 24);
        assert_eq!(comm.recv::<i64>(left, Tag(3)).1.bytes, 16);
        assert_eq!(comm.recv::<f32>(left, Tag(4)).1.bytes, 28);
        assert_eq!(comm.recv::<f64>(left, Tag(5)).1.bytes, 32);
        assert_eq!(comm.recv::<f64>(left, Tag(6)).1.bytes, 0);

        let volume = if me == 1 { vec![0.5f32; 6] } else { vec![] };
        assert_eq!(comm.bcast(1, &volume), vec![0.5f32; 6]);
        // A gather of `u64`s to rank 2 and an all-to-all of `i64`s, point
        // to point.
        if me != 2 {
            comm.send(2, Tag(7), &vec![me as u64; me + 1]);
        } else {
            for src in [0, 1, 3] {
                assert_eq!(comm.recv::<u64>(src, Tag(7)).0, vec![src as u64; src + 1]);
            }
        }
        for dst in (0..n).filter(|&dst| dst != me) {
            comm.send(dst, Tag(8), &vec![me as i64; dst + 1]);
        }
        for src in (0..n).filter(|&src| src != me) {
            assert_eq!(comm.recv::<i64>(src, Tag(8)).0, vec![src as i64; me + 1]);
        }
        assert_eq!(comm.allreduce_f64s(ReduceOp::Min, &[me as f64, 0.5])[0], 0.0);
        assert_eq!(comm.allreduce_topo_f64s(ReduceOp::Sum, &[1.0, me as f64, -0.0])[0], 4.0);
        comm.barrier();
        books(comm.comm_cost())
    });
    for (rank, (got, want)) in costs.iter().zip(&EXPECTED).enumerate() {
        assert_books(&format!("rank {rank}"), got, want);
    }
    assert_eq!(format!("{:?}", u.trace().summary(u.total_ranks())), EXPECTED_SUMMARY);
}

const OP_TIMEOUT: Option<Duration> = Some(Duration::from_secs(10));

/// Per rank: the world's books.
const EXPECTED_WORLD: [Books; 4] = [
    ([0.012011518095238094, 6.351428571428571e-6, 0.012005166666666666], [14, 8, 278]),
    ([0.009018279999999998, 1.0779999999999998e-5, 0.009007500000000002], [8, 2, 198]),
    ([0.0091667, 0.00016260000000000002, 0.0090041], [10, 6, 214]),
    ([0.006166166666666668, 0.00016260000000000002, 0.006003566666666666], [8, 4, 198]),
];

/// Per child rank of the spawned world: its world's books.
const EXPECTED_CHILDREN: [Books; 2] =
    [([5.16e-7, 5.16e-7, 0.0], [1, 0, 16]), ([5.16e-7, 5.16e-7, 0.0], [1, 0, 16])];

const EXPECTED_WORLD_SUMMARY: &str = "VampirSummary { ranks: 6, \
    messages: [[0, 3, 2, 2, 1, 0], [3, 0, 1, 0, 0, 0], [2, 1, 0, 2, 0, 0], [2, 0, 2, 0, 0, 0], [0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0]], \
    bytes: [[0, 96, 24, 19, 16, 0], [27, 0, 72, 0, 0, 0], [24, 3, 0, 80, 0, 0], [88, 0, 11, 0, 0, 0], [0, 0, 0, 0, 0, 16], [16, 0, 0, 0, 0, 0]], \
    sends: [8, 4, 5, 4, 1, 1], recvs: [3, 2, 2, 2, 1, 1], collectives: [3, 3, 3, 3, 0, 0] }";

#[test]
fn each_handle_the_guarded_charge_and_a_spawn_round_trip_are_pinned() {
    // Global rank 1 runs 3x slow until its virtual clock passes 5 ms:
    // its first four guarded charges are scaled, the rest are not.
    let mut plan = ProcessFaultPlan::new(1999);
    let window = Window::new(SimTime::ZERO, SimTime::from_secs_f64(5e-3));
    plan.slow(1, Schedule::new(vec![window]), 3.0);
    let u = Universe::traced();
    u.install_process_faults(&plan);
    let children = Arc::new(Mutex::new(Vec::new()));
    let kids = Arc::clone(&children);
    let world = u.launch_and_join(two_sites(), move |comm| {
        let (me, n) = (comm.rank(), comm.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        comm.try_send(right, Tag(1), &[me as f64; 9]).unwrap();
        assert_eq!(comm.try_recv::<f64>(left, Tag(1), OP_TIMEOUT).unwrap().1.bytes, 72);
        comm.try_send(left, Tag(2), &[me as u8; 3]).unwrap();
        assert_eq!(comm.try_recv::<u8>(right, Tag(2), OP_TIMEOUT).unwrap().0, [right as u8; 3]);
        let sum = comm.try_allreduce_f64s(ReduceOp::Sum, &[me as f64, -0.0], OP_TIMEOUT);
        assert_eq!(sum.unwrap()[0], 6.0);
        comm.try_barrier(OP_TIMEOUT).unwrap();
        let max = comm.try_allreduce_topo_f64s(ReduceOp::Max, &[me as f64], OP_TIMEOUT);
        assert_eq!(max.unwrap()[0], 3.0);

        if me == 0 {
            let kids = Arc::clone(&kids);
            let onyx = MachineSpec::new("Onyx2", FabricSpec::smp_shared());
            let child = comm.spawn(2, onyx, move |c| {
                let parent = c.parent().expect("a spawned world has a parent");
                if c.rank() == 0 {
                    let (v, _) = parent.recv::<f64>(0, Tag(7));
                    c.send(1, Tag(7), &v);
                } else {
                    let (v, _) = c.recv::<f64>(0, Tag(7));
                    parent.send(0, Tag(8), &[v[0] * 2.0, v[1]]);
                }
                kids.lock().unwrap().push((c.rank(), books(c.comm_cost())));
            });
            child.send(0, Tag(7), &[1.5f64, -0.0]);
            let (back, st) = child.recv::<f64>(1, Tag(8));
            assert_eq!((back[0], back[1].to_bits(), st.source), (3.0, (-0.0f64).to_bits(), 1));
        }
        books(comm.comm_cost())
    });
    u.join_spawned();
    let mut children = children.lock().unwrap().clone();
    children.sort_by_key(|&(rank, _)| rank);
    for (rank, (got, want)) in world.iter().zip(&EXPECTED_WORLD).enumerate() {
        assert_books(&format!("rank {rank}"), got, want);
    }
    for ((rank, got), want) in children.iter().zip(&EXPECTED_CHILDREN) {
        assert_books(&format!("child {rank}"), got, want);
    }
    assert_eq!(format!("{:?}", u.trace().summary(u.total_ranks())), EXPECTED_WORLD_SUMMARY);
}
