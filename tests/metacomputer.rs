//! Cross-crate integration: the metacomputing runtime under the
//! applications (gtw-mpi + gtw-apps + gtw-core).

use gtw_apps::climate;
use gtw_apps::groundwater::{self, Grid};
use gtw_apps::meg::{head_grid, music_scan, signal_subspace, synthesize, Dipole, SensorArray};
use gtw_apps::traffic::{effective_payload, AppProfile};
use gtw_core::machines::MachineCatalog;
use gtw_mpi::{FabricSpec, Placement, PointToPoint, Tag, Universe};
use gtw_net::units::Bandwidth;

#[test]
fn catalog_machines_drive_placements() {
    let cat = MachineCatalog::paper();
    let t3e = cat.find("Cray T3E-600").unwrap().spec();
    let sp2 = cat.find("IBM SP2").unwrap().spec();
    let placement = Placement::split(4, 2, t3e, sp2, FabricSpec::wan_testbed());
    let costs = Universe::run_placed(placement, |comm| {
        // All-pairs ping: every rank sends one message to every other.
        for dst in 0..comm.size() {
            if dst != comm.rank() {
                comm.send(dst, Tag(1), &[comm.rank() as f64]);
            }
        }
        for _ in 0..comm.size() - 1 {
            let _ = comm.recv::<f64>(gtw_mpi::ANY_SOURCE, Tag(1));
        }
        comm.comm_cost()
    });
    // Ranks on the T3E side talk cheaply to each other, expensively
    // across the WAN.
    for c in &costs {
        assert_eq!(c.messages, 6); // 3 sends + 3 recvs
        assert!(c.wan_seconds > c.intra_seconds, "{c:?}");
    }
}

#[test]
fn traced_coupled_run_produces_message_matrix() {
    let u = Universe::traced();
    let grid = Grid { nx: 12, ny: 6, nz: 4 };
    u.launch_and_join(
        Placement::single(2, MachineCatalog::paper().find("Cray T3E-600").unwrap().spec()),
        move |comm| {
            groundwater::coupled_run(&comm, grid, 3, 5.0, 1);
        },
    );
    u.join_spawned();
    let s = u.trace().summary(u.total_ranks());
    // 3 field transfers rank0 -> rank1 plus one stats message back.
    assert_eq!(s.messages[0][1], 3, "{}", s.message_matrix_table());
    assert_eq!(s.messages[1][0], 1, "{}", s.message_matrix_table());
    assert!(s.total_bytes() > 3 * (3 * grid.len() * 4) as u64 - 1);
}

#[test]
fn heterogeneous_split_music_runs_on_two_machine_placement() {
    // pmusic's split: eigendecomposition on the "vector machine" rank,
    // grid scan spread over all ranks.
    let array = SensorArray::helmet(4, 10);
    let dipoles =
        vec![Dipole { position: [0.3, 0.0, 0.4], moment: [0.0, 1.0, 0.0], frequency: 0.06 }];
    let x = synthesize(&array, &dipoles, 120, 0.03, 9);
    let serial = {
        let basis = signal_subspace(&x, 1);
        music_scan(&array, &basis, head_grid(9))
    };
    let cat = MachineCatalog::paper();
    let placement = Placement::split(
        4,
        1,
        cat.find("Cray T90").unwrap().spec(),
        cat.find("Cray T3E-600").unwrap().spec(),
        FabricSpec::wan_testbed(),
    );
    let array2 = array.clone();
    let out = Universe::run_placed(placement, move |comm| {
        let data = if comm.rank() == 0 { Some(&x) } else { None };
        let scan = gtw_apps::meg::distributed_music(&comm, &array2, data, 1, 9);
        (scan, comm.comm_cost())
    });
    for (scan, cost) in &out {
        for (a, b) in scan.spectrum.iter().zip(&serial.spectrum) {
            assert!((a - b).abs() < 1e-9);
        }
        // Low-volume traffic: well under a megabyte per rank.
        assert!(cost.bytes < 1_000_000, "{cost:?}");
    }
    let peak = serial.peaks(1, 0.3)[0];
    let err = ((peak.0[0] - 0.3).powi(2) + peak.0[1].powi(2) + (peak.0[2] - 0.4).powi(2)).sqrt();
    assert!(err < 0.15, "localization error {err}");
}

#[test]
fn climate_coupling_converges_on_wan_placement() {
    let cat = MachineCatalog::paper();
    let placement = Placement::split(
        2,
        1,
        cat.find("Cray T3E-600").unwrap().spec(),
        cat.find("IBM SP2").unwrap().spec(),
        FabricSpec::wan_testbed(),
    );
    let out =
        Universe::run_placed(placement, |comm| climate::coupled_run(&comm, (32, 16), (24, 12), 60));
    let r = out[0].as_ref().unwrap();
    let early = (r.sst_mean[1] - r.tair_mean[1]).abs();
    let late = (r.sst_mean[59] - r.tair_mean[59]).abs();
    assert!(late < early);
}

#[test]
fn every_paper_app_fits_the_oc48_payload() {
    let oc48 = effective_payload(Bandwidth::OC48);
    for app in AppProfile::paper_apps() {
        assert!(app.feasible_on(oc48, 1e-3).ok, "{}", app.name);
    }
}
