//! What a message *costs* must not depend on how its buffer travels
//! between two threads: every rank's `CommCost` and the `VampirSummary`
//! of a fixed script on a 2-site placement, against values captured on
//! the commit *before* envelopes stopped being byte-encoded. `byte_len()`
//! is `count × elem_bytes`, so wire bytes, modeled seconds and the trace
//! are those of the encoded message. A second script pins the books of
//! every handle a rank holds and of the failure-aware charge, against
//! values captured on the commit *before* a communicator handle kept its
//! own `CommCost` and its peers' mailboxes.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use gtw_desim::fault::ProcessFaultPlan;
use gtw_desim::{Schedule, SimTime, Window};
use gtw_mpi::{
    CommCost, FabricSpec, MachineSpec, Placement, PointToPoint, ReduceOp, Tag, Universe, ANY_SOURCE,
};

/// Per rank: `(seconds, intra_seconds, wan_seconds)`, then
/// `(messages, wan_messages, bytes)`.
const EXPECTED: [([f64; 3], [u64; 3]); 4] = [
    ([0.01951934095238095, 1.1574285714285714e-5, 0.01950776666666667], [24, 13, 434]),
    ([0.019520140952380954, 1.1574285714285713e-5, 0.01950856666666667], [24, 13, 458]),
    ([0.02295598571428572, 0.0004468857142857143, 0.0225091], [26, 15, 514]),
    ([0.01695411904761905, 0.0004468857142857143, 0.016507233333333333], [22, 11, 458]),
];

const EXPECTED_SUMMARY: &str = "VampirSummary { ranks: 4, \
    messages: [[0, 8, 3, 1], [3, 0, 9, 2], [2, 1, 0, 8], [7, 1, 3, 0]], \
    bytes: [[0, 145, 56, 32], [56, 0, 169, 56], [32, 16, 0, 161], [113, 16, 80, 0]], \
    sends: [12, 14, 11, 11], recvs: [6, 6, 6, 6], collectives: [4, 4, 4, 4] }";

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
        let gathered = comm.gather(2, &vec![me as u64; me + 1]);
        assert_eq!(gathered.is_some(), me == 2);
        let parts: Vec<Vec<i64>> = (0..n).map(|dst| vec![me as i64; dst + 1]).collect();
        assert_eq!(comm.alltoall(&parts)[left], vec![left as i64; me + 1]);
        assert_eq!(comm.allreduce_topo_f64s(ReduceOp::Sum, &[1.0, me as f64, -0.0])[0], 4.0);
        books(comm.comm_cost())
    });
    for (rank, (got, want)) in costs.iter().zip(&EXPECTED).enumerate() {
        assert_books(&format!("rank {rank}"), got, want);
    }
    assert_eq!(format!("{:?}", u.trace().summary(u.total_ranks())), EXPECTED_SUMMARY);
}

const OP_TIMEOUT: Option<Duration> = Some(Duration::from_secs(10));

/// Per rank: the world's, the `dup`'s and the `split`'s books.
const EXPECTED_HANDLES: [[Books; 3]; 4] = [
    [
        ([0.015019281904761903, 6.648571428571427e-06, 0.015012633333333332], [16, 10, 606]),
        ([0.004504737142857143, 3.137142857142857e-06, 0.0045016], [6, 3, 96]),
        ([0.0045018666666666665, 0.0, 0.0045018666666666665], [3, 3, 56]),
    ],
    [
        ([0.009018577142857143, 1.1077142857142856e-05, 0.009007500000000002], [8, 2, 302]),
        ([0.0015042038095238095, 3.137142857142857e-06, 0.0015010666666666667], [4, 1, 80]),
        ([0.0045018666666666665, 0.0, 0.0045018666666666665], [3, 3, 56]),
    ],
    [
        ([0.009089709523809525, 8.214285714285715e-05, 0.009007566666666668], [8, 6, 302]),
        ([0.004622971428571428, 0.00012137142857142859, 0.0045016], [6, 3, 96]),
        ([0.0045018666666666665, 0.0, 0.0045018666666666665], [3, 3, 56]),
    ],
    [
        ([0.009089709523809525, 8.214285714285715e-05, 0.009007566666666668], [8, 6, 302]),
        ([0.001622438095238095, 0.00012137142857142859, 0.0015010666666666667], [4, 1, 80]),
        ([0.0045018666666666665, 0.0, 0.0045018666666666665], [3, 3, 56]),
    ],
];

/// Per child rank of the spawned world: its world's books.
const EXPECTED_CHILDREN: [Books; 2] =
    [([5.16e-07, 5.16e-07, 0.0], [1, 0, 16]), ([5.16e-07, 5.16e-07, 0.0], [1, 0, 16])];

const EXPECTED_HANDLES_SUMMARY: &str = "VampirSummary { ranks: 6, \
    messages: [[0, 5, 4, 3, 1, 0], [4, 0, 2, 1, 0, 0], [5, 1, 0, 3, 0, 0], [4, 2, 2, 0, 0, 0], [0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0]], \
    bytes: [[0, 224, 140, 115, 16, 0], [51, 0, 104, 20, 0, 0], [84, 3, 0, 112, 0, 0], [144, 36, 11, 0, 0, 0], [0, 0, 0, 0, 0, 16], [16, 0, 0, 0, 0, 0]], \
    sends: [13, 7, 9, 8, 1, 1], recvs: [5, 4, 4, 4, 1, 1], collectives: [7, 7, 7, 7, 0, 0] }";

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
    let handles = u.launch_and_join(two_sites(), move |comm| {
        let (me, n) = (comm.rank(), comm.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let dup = comm.dup();
        let half = comm.split((me % 2) as i64, -(me as i64));

        comm.try_send(right, Tag(1), &[me as f64; 9]).unwrap();
        assert_eq!(comm.try_recv::<f64>(left, Tag(1), OP_TIMEOUT).unwrap().1.bytes, 72);
        comm.try_send(left, Tag(2), &[me as u8; 3]).unwrap();
        assert_eq!(comm.try_recv::<u8>(right, Tag(2), OP_TIMEOUT).unwrap().0, [right as u8; 3]);
        let sum = comm.try_allreduce_f64s(ReduceOp::Sum, &[me as f64, -0.0], OP_TIMEOUT);
        assert_eq!(sum.unwrap()[0], 6.0);
        comm.try_barrier(OP_TIMEOUT).unwrap();

        dup.send(right, Tag(1), &[me as u64; 4]);
        assert_eq!(dup.recv::<u64>(left, Tag(1)).0, [left as u64; 4]);
        assert_eq!(dup.allreduce_topo_f64s(ReduceOp::Max, &[me as f64])[0], 3.0);

        let (hr, hn) = (half.rank(), half.size());
        half.send((hr + 1) % hn, Tag(3), &[me as f32; 5]);
        assert_eq!(half.recv::<f32>(ANY_SOURCE, Tag(3)).1.bytes, 20);
        assert_eq!(half.bcast(0, &vec![me as i64; 2 * (hr + 1)]).len(), 2);

        if me == 0 {
            let kids = Arc::clone(&kids);
            let onyx = MachineSpec::new("Onyx2", FabricSpec::smp_shared());
            let child = comm.spawn(2, onyx, FabricSpec::wan_testbed(), move |c| {
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
        [books(comm.comm_cost()), books(dup.comm_cost()), books(half.comm_cost())]
    });
    u.join_spawned();
    let mut children = children.lock().unwrap().clone();
    children.sort_by_key(|&(rank, _)| rank);
    for (rank, (got, want)) in handles.iter().zip(&EXPECTED_HANDLES).enumerate() {
        for (h, name) in ["world", "dup", "split"].iter().enumerate() {
            assert_books(&format!("rank {rank} {name}"), &got[h], &want[h]);
        }
    }
    for ((rank, got), want) in children.iter().zip(&EXPECTED_CHILDREN) {
        assert_books(&format!("child {rank}"), got, want);
    }
    assert_eq!(format!("{:?}", u.trace().summary(u.total_ranks())), EXPECTED_HANDLES_SUMMARY);
}
