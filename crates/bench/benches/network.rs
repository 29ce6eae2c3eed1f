//! Criterion microbenchmarks of the network-stack primitives.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gtw_desim::SimDuration;
use gtw_net::aal5::{segment, Reassembler};
use gtw_net::cell::{AtmCell, CellHeader};
use gtw_net::ip::IpConfig;
use gtw_net::link::Medium;
use gtw_net::tcp::HopModel;
use gtw_net::transfer::{BulkTransfer, Protocol};
use gtw_net::units::Bandwidth;
use std::hint::black_box;

/// One cell to the wire and back: the table-driven HEC (`crc8_atm`)
/// generated once and verified once.
fn bench_cells(c: &mut Criterion) {
    let cell = AtmCell::new(CellHeader::data(1, 42), &[7u8; 48]);
    c.bench_function("cell_wire_roundtrip", |b| {
        b.iter(|| {
            let w = black_box(&cell).to_wire();
            black_box(AtmCell::from_wire(&w).unwrap())
        })
    });
}

/// A CLIP-MTU PDU through `segment` and `Reassembler::push`; each side
/// runs the slicing-by-8 CRC-32 once over the 9 212 PDU octets, so this
/// is dominated by the CRC and the 192 cell copies.
fn bench_aal5(c: &mut Criterion) {
    let payload: Vec<u8> = (0..9180).map(|i| (i % 251) as u8).collect();
    let mut group = c.benchmark_group("aal5");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("segment_9180B", |b| {
        b.iter(|| black_box(segment(black_box(&payload), 1, 100)))
    });
    let cells = segment(&payload, 1, 100);
    group.bench_function("reassemble_9180B", |b| {
        b.iter(|| {
            let mut r = Reassembler::new();
            let mut out = None;
            for cell in &cells {
                if let Some(res) = r.push(cell) {
                    out = Some(res);
                }
            }
            black_box(out.unwrap().unwrap())
        })
    });
    group.finish();
}

fn bench_tcp_sim(c: &mut Criterion) {
    let hops = vec![
        HopModel {
            medium: Medium::Atm { cell_rate: Bandwidth::from_mbps(599.04) },
            per_packet: SimDuration::from_micros(120),
            propagation: SimDuration::from_micros(500),
        };
        2
    ];
    let xfer = BulkTransfer {
        hops,
        ip: IpConfig::large_mtu(),
        bytes: 8 * 1024 * 1024,
        protocol: Protocol::Tcp { window_bytes: 2 * 1024 * 1024 },
    };
    let mut group = c.benchmark_group("tcp_sim");
    group.sample_size(20);
    group.bench_function("bulk_8MiB_2hops", |b| b.iter(|| black_box(xfer.run())));
    group.finish();
}

criterion_group!(benches, bench_cells, bench_aal5, bench_tcp_sim);
criterion_main!(benches);
