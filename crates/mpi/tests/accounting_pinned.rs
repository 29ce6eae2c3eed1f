//! What a message *costs* must not depend on how its buffer travels
//! between two threads: every rank's `CommCost` and the `VampirSummary`
//! of a fixed script on a 2-site placement, against values captured on
//! the commit *before* envelopes stopped being byte-encoded. `byte_len()`
//! is `count × elem_bytes`, so wire bytes, modeled seconds and the trace
//! are those of the encoded message.

use gtw_mpi::{FabricSpec, MachineSpec, Placement, PointToPoint, ReduceOp, Tag, Universe};

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

#[test]
fn comm_cost_and_trace_are_those_of_the_byte_encoded_path() {
    let placement = Placement::split(
        4,
        2,
        MachineSpec::new("T3E", FabricSpec::t3e_torus()),
        MachineSpec::new("SP2", FabricSpec::sp2_switch()),
        FabricSpec::wan_testbed(),
    );
    let u = Universe::traced();
    let costs = u.launch_and_join(placement, |comm| {
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
        let c = comm.comm_cost();
        ([c.seconds, c.intra_seconds, c.wan_seconds], [c.messages, c.wan_messages, c.bytes])
    });
    for (rank, (got, want)) in costs.iter().zip(&EXPECTED).enumerate() {
        assert_eq!(got.1, want.1, "rank {rank}: messages, WAN messages, bytes");
        // The seconds are summed in the order messages were claimed, a
        // root claims contributions in arrival order, and float addition
        // is not associative: two runs may differ in the last bit.
        for (g, w) in got.0.iter().zip(want.0) {
            assert!((g - w).abs() <= 1e-12 * w, "rank {rank}: {g:e} seconds, pinned {w:e}");
        }
    }
    assert_eq!(format!("{:?}", u.trace().summary(u.total_ranks())), EXPECTED_SUMMARY);
}
