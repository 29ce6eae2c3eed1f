//! # gtw-viz — visualization: 2-D overlays, volume rendering, and the
//! Responsive Workbench
//!
//! The display side of the fMRI application:
//!
//! * [`image`] — RGB images, PPM export, and the run-length codec used by
//!   the remote-display ablation,
//! * [`color`] — grayscale anatomy mapping and the hot colormap for
//!   correlation overlays,
//! * [`overlay`] — the 2-D display of Figure 3: anatomy slices with a
//!   colour-coded correlation overlay above the clip level,
//! * [`raycast`] — a software volume renderer standing in for AVS /
//!   Onyx 2 (Figure 4): front-to-back compositing of the anatomy with
//!   activation highlighting,
//! * [`workbench`] — the Responsive Workbench: two projection planes of
//!   stereo 1024×768 true-colour frames, and the remote-display frame
//!   transport over the testbed (the paper's "<8 frames/s over 622
//!   Mbit/s classical IP" arithmetic, plus the planned AVOCADO remote
//!   display with compression).

pub mod color;
pub mod image;
pub mod overlay;
pub mod raycast;
pub mod workbench;

pub use image::{Image, Rgb};
pub use overlay::render_overlay;
pub use raycast::{RenderParams, VolumeRenderer};
pub use workbench::{FrameTransport, Workbench};
