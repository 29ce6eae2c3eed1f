//! The benchmark's 36 views of the 64×64×32 phantom, pinned: one FNV-1a
//! digest per 64×64 frame. The constants were captured on the commit
//! before the occupancy summary, while `render` still visited every step
//! of every ray, so neither that change nor a later one can move a pixel
//! without failing here.

mod common;

use common::{benchmark_params, frame_digest, phantom_volumes, SCENE, VIEWS};
use gtw_viz::raycast::VolumeRenderer;

const PINNED: [u64; VIEWS] = [
    0x06dc_f384_7805_83c8,
    0xb7bc_c839_20c7_9816,
    0xf90c_fe9e_3ab3_aad5,
    0x58d7_67e3_1d53_fa48,
    0x193e_7dc2_fbef_8cc4,
    0xa298_17ca_02b6_724c,
    0x816e_c03d_d155_5d5d,
    0xcbb8_74f3_55e6_bd42,
    0xb3d8_5b94_8954_d083,
    0x8f17_2fa5_3eb7_681f,
    0xead8_1cd6_9166_bcde,
    0x85a6_e742_89b9_a91e,
    0xb652_18bc_bd58_250f,
    0x88fd_3eb6_428a_48fd,
    0x76eb_773b_f182_b068,
    0x5145_6ba3_52d1_70de,
    0x7329_4e72_008f_4352,
    0x0073_004e_50fb_b756,
    0x6f12_809f_ae82_e24a,
    0xac97_a7ae_00e3_d054,
    0xe0cc_bd33_d885_20f1,
    0xce69_8bca_77cf_d460,
    0x6ca0_485e_35e8_0583,
    0x3fd6_e1f1_646a_eeb1,
    0x12f5_cc73_5763_3107,
    0x38d1_6b20_6542_4746,
    0x9807_4667_3904_19fc,
    0xf569_c9b6_6c05_9d0e,
    0x0a08_03bd_d756_bb53,
    0x148e_5a1d_5c68_f05c,
    0x5496_14b2_a585_fd25,
    0x2396_bf7c_ac0b_c1fb,
    0xbbf7_61fe_76f7_ceb4,
    0x86c8_92c0_7185_1eaa,
    0x3fd9_5011_db21_481d,
    0x599a_a960_295d_2282,
];

#[test]
fn benchmark_views_are_pinned() {
    let (anatomy, activation) = phantom_volumes(SCENE);
    let renderer = VolumeRenderer::new(anatomy, Some(activation));
    let got: Vec<u64> = (0..VIEWS)
        .map(|view| frame_digest(&renderer.render(&benchmark_params(view, 64))))
        .collect();
    for (view, (g, want)) in got.iter().zip(&PINNED).enumerate() {
        assert_eq!(g, want, "view {view}: digest {g:#018x}; all: {got:#018x?}");
    }
}
