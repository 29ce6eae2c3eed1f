//! FIRE checkpoint/restart: a compact, self-describing binary snapshot
//! of the realtime pipeline's accumulated state.
//!
//! The paper's chain loses the whole session when the analysis side
//! dies: the incremental correlation sums live only in the T3E world's
//! memory, so a crashed compute rank meant restarting the protocol. The
//! checkpoint captures everything the pipeline has accumulated — the
//! running per-voxel sums, the stored preprocessed series and the motion
//! log — so a respawned compute world resumes *bit-identically* from the
//! last completed scan instead of scan zero.
//!
//! The encoding is a hand-rolled little-endian layout (the repo has no
//! serialization framework): every `f32`/`f64` travels as its exact IEEE
//! bits, which is what makes restored correlation maps byte-equal to an
//! uninterrupted run.

use gtw_scan::volume::{Dims, Volume};

/// Layout magic: "FCK1" little-endian.
const MAGIC: u32 = 0x314b_4346;
/// Layout version; bump on any change.
const VERSION: u32 = 1;

/// One motion-log entry in checkpoint form.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MotionEntry {
    /// Rigid-body parameters `[rx, ry, rz, tx, ty, tz]`.
    pub params: [f32; 6],
    /// Gauss–Newton iterations used.
    pub iterations: u32,
    /// RMS intensity residual at the solution.
    pub residual_rms: f32,
}

/// The checkpointable state of a [`crate::FirePipeline`].
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Volume geometry of the protocol.
    pub dims: Dims,
    /// Scans fully incorporated.
    pub scans: usize,
    /// Running reference sums of the incremental correlation.
    pub sum_r: f64,
    /// Running squared reference sum.
    pub sum_r2: f64,
    /// Per-voxel signal sums.
    pub sum_x: Vec<f64>,
    /// Per-voxel squared signal sums.
    pub sum_x2: Vec<f64>,
    /// Per-voxel signal × reference sums.
    pub sum_xr: Vec<f64>,
    /// The stored preprocessed series (voxel data per scan; detrending
    /// and RVO need the history, and `series[0]` is the motion
    /// reference).
    pub series: Vec<Vec<f32>>,
    /// Motion estimates logged so far.
    pub motion: Vec<MotionEntry>,
}

/// Why a checkpoint blob failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob is shorter than its layout promises.
    Truncated,
    /// The magic number is wrong — not a FIRE checkpoint.
    BadMagic,
    /// A layout version this build does not understand.
    BadVersion(u32),
    /// Internal lengths disagree (corrupt blob).
    Inconsistent(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a FIRE checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unknown checkpoint version {v}"),
            CheckpointError::Inconsistent(what) => write!(f, "inconsistent checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CheckpointError> {
        let raw = self.take(n.checked_mul(8).ok_or(CheckpointError::Truncated)?)?;
        Ok(raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8"))).collect())
    }
    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.take(n.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
        Ok(raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4"))).collect())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}
fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

impl Checkpoint {
    /// Serialize to the little-endian wire layout.
    pub fn encode(&self) -> Vec<u8> {
        let voxels = self.dims.len();
        let mut out = Vec::with_capacity(
            64 + voxels * 24 + self.series.len() * (8 + voxels * 4) + self.motion.len() * 32,
        );
        put_u32(&mut out, MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, self.dims.nx as u32);
        put_u32(&mut out, self.dims.ny as u32);
        put_u32(&mut out, self.dims.nz as u32);
        put_u64(&mut out, self.scans as u64);
        out.extend_from_slice(&self.sum_r.to_le_bytes());
        out.extend_from_slice(&self.sum_r2.to_le_bytes());
        put_f64s(&mut out, &self.sum_x);
        put_f64s(&mut out, &self.sum_x2);
        put_f64s(&mut out, &self.sum_xr);
        put_u64(&mut out, self.series.len() as u64);
        for vol in &self.series {
            put_f32s(&mut out, vol);
        }
        put_u64(&mut out, self.motion.len() as u64);
        for m in &self.motion {
            put_f32s(&mut out, &m.params);
            put_u32(&mut out, m.iterations);
            put_f32s(&mut out, &[m.residual_rms]);
        }
        out
    }

    /// Decode a blob produced by [`Checkpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let dims = Dims::new(r.u32()? as usize, r.u32()? as usize, r.u32()? as usize);
        let voxels = dims.len();
        if voxels == 0 {
            return Err(CheckpointError::Inconsistent("empty volume"));
        }
        let scans = r.u64()? as usize;
        let sum_r = r.f64()?;
        let sum_r2 = r.f64()?;
        let sum_x = r.f64s(voxels)?;
        let sum_x2 = r.f64s(voxels)?;
        let sum_xr = r.f64s(voxels)?;
        let n_series = r.u64()? as usize;
        if n_series != scans {
            return Err(CheckpointError::Inconsistent("series/scan count mismatch"));
        }
        let mut series = Vec::with_capacity(n_series);
        for _ in 0..n_series {
            series.push(r.f32s(voxels)?);
        }
        let n_motion = r.u64()? as usize;
        if n_motion > scans {
            return Err(CheckpointError::Inconsistent("more motion entries than scans"));
        }
        let mut motion = Vec::with_capacity(n_motion);
        for _ in 0..n_motion {
            let p = r.f32s(6)?;
            let params = [p[0], p[1], p[2], p[3], p[4], p[5]];
            let iterations = r.u32()?;
            let residual_rms = r.f32()?;
            motion.push(MotionEntry { params, iterations, residual_rms });
        }
        if r.pos != bytes.len() {
            return Err(CheckpointError::Inconsistent("trailing bytes"));
        }
        Ok(Checkpoint { dims, scans, sum_r, sum_r2, sum_x, sum_x2, sum_xr, series, motion })
    }

    /// The stored series as volumes.
    pub(crate) fn series_volumes(&self) -> Vec<Volume> {
        self.series.iter().map(|d| Volume::from_vec(self.dims, d.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let dims = Dims::new(3, 2, 2);
        let voxels = dims.len();
        Checkpoint {
            dims,
            scans: 2,
            sum_r: 0.125,
            sum_r2: -3.5e-9,
            sum_x: (0..voxels).map(|i| i as f64 * 0.1).collect(),
            sum_x2: (0..voxels).map(|i| i as f64 * 0.01).collect(),
            sum_xr: (0..voxels).map(|i| -(i as f64)).collect(),
            series: vec![vec![1.5; voxels], vec![-2.25; voxels]],
            motion: vec![MotionEntry {
                params: [0.01, -0.02, 0.03, 1.5, -2.5, 0.0],
                iterations: 7,
                residual_rms: 0.375,
            }],
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = sample();
        let decoded = Checkpoint::decode(&ck.encode()).expect("roundtrip");
        assert_eq!(decoded, ck);
        // Same bits in, same bytes out.
        assert_eq!(decoded.encode(), ck.encode());
    }

    #[test]
    fn truncation_and_corruption_are_detected() {
        let bytes = sample().encode();
        for cut in [0, 4, 11, bytes.len() - 1] {
            assert_eq!(Checkpoint::decode(&bytes[..cut]), Err(CheckpointError::Truncated), "{cut}");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(Checkpoint::decode(&bad), Err(CheckpointError::BadMagic));
        let mut vers = bytes.clone();
        vers[4] = 99;
        assert_eq!(Checkpoint::decode(&vers), Err(CheckpointError::BadVersion(99)));
        let mut long = bytes;
        long.push(0);
        assert_eq!(Checkpoint::decode(&long), Err(CheckpointError::Inconsistent("trailing bytes")));
    }

    #[test]
    fn special_float_bits_survive() {
        let mut ck = sample();
        ck.sum_x[0] = f64::NAN;
        ck.sum_x2[1] = f64::NEG_INFINITY;
        ck.series[0][2] = -0.0;
        let d = Checkpoint::decode(&ck.encode()).expect("roundtrip");
        assert!(d.sum_x[0].is_nan());
        assert_eq!(d.sum_x2[1], f64::NEG_INFINITY);
        assert_eq!(d.series[0][2].to_bits(), (-0.0f32).to_bits());
    }
}
