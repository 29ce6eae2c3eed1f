//! AAL5 — the ATM adaptation layer carrying all IP traffic in the testbed.
//!
//! A CPCS-PDU is the user payload, zero-padded so that payload + pad +
//! 8-byte trailer is a multiple of 48, followed by the trailer:
//!
//! ```text
//! | payload (0..=65535) | PAD (0..=47) | UU | CPI | Length(2) | CRC-32(4) |
//! ```
//!
//! The PDU is then segmented into 48-byte cell payloads; the final cell is
//! marked via the PTI "AAL indicate" bit. Reassembly collects cells per VC
//! until the end bit, then validates length and CRC-32 — payload
//! corruption that slips past the cell layer (whose HEC only covers
//! headers) is caught here, exactly as on real hardware.

use crate::cell::{AtmCell, CellHeader, Pti, ATM_PAYLOAD_BYTES};

/// Maximum CPCS-SDU (payload) size: the 16-bit length field.
pub const MAX_CPCS_PAYLOAD: usize = 65535;
/// CPCS trailer size.
pub const TRAILER_BYTES: usize = 8;

/// The bit-at-a-time CRC-32 step: `crc` shifted through eight times
/// under the IEEE 802.3 generator 0x04C11DB7, MSB-first.
const fn crc32_shift(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 0x8000_0000 != 0 { (crc << 1) ^ 0x04C1_1DB7 } else { crc << 1 };
        bit += 1;
    }
    crc
}

/// Slicing-by-8 tables: `CRC32_TABLES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes went through it.
static CRC32_TABLES: [[u32; 256]; 8] = const {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        t[k][b] = if k == 0 {
            crc32_shift((b as u32) << 24)
        } else {
            let prev = t[k - 1][b];
            (prev << 8) ^ t[0][(prev >> 24) as usize]
        };
        i += 1;
    }
    t
};

/// The CRC register after `data` went through it from state `crc`:
/// table-driven, eight bytes per step, then byte by byte.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let hi = crc ^ u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(hi >> 24) as usize]
            ^ t[6][(hi >> 16) as usize & 0xff]
            ^ t[5][(hi >> 8) as usize & 0xff]
            ^ t[4][hi as usize & 0xff]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc << 8) ^ t[0][((crc >> 24) as u8 ^ byte) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3 generator 0x04C11DB7, MSB-first, init all-ones,
/// final complement) as used by the AAL5 CPCS trailer.
pub fn crc32_aal5(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// The bit-at-a-time definition [`crc32_aal5`] must agree with.
#[cfg(test)]
fn crc32_aal5_bitwise(data: &[u8]) -> u32 {
    !data.iter().fold(0xFFFF_FFFF, |crc, &byte| crc32_shift(crc ^ (byte as u32) << 24))
}

/// Size of the full CPCS-PDU (payload + pad + trailer) for a given payload
/// length — always a multiple of 48.
pub fn cpcs_pdu_len(payload_len: usize) -> usize {
    (payload_len + TRAILER_BYTES).div_ceil(ATM_PAYLOAD_BYTES) * ATM_PAYLOAD_BYTES
}

/// Number of cells an AAL5 PDU of the given payload length occupies.
pub fn cells_for_pdu(payload_len: usize) -> usize {
    cpcs_pdu_len(payload_len) / ATM_PAYLOAD_BYTES
}

/// Wire bits consumed by sending `payload_len` bytes as one AAL5 PDU
/// (including the 5-byte header of every cell).
pub fn wire_bits_for_pdu(payload_len: usize) -> u64 {
    cells_for_pdu(payload_len) as u64 * 53 * 8
}

/// Build the CPCS-PDU octets for `payload`: what [`segment`] puts in its
/// cells, in one piece (the reference its tests hold it to).
pub fn build_cpcs_pdu(payload: &[u8], uu: u8, cpi: u8) -> Vec<u8> {
    assert!(payload.len() <= MAX_CPCS_PAYLOAD, "AAL5 payload exceeds 65535 bytes");
    let total = cpcs_pdu_len(payload.len());
    let mut pdu = Vec::with_capacity(total);
    pdu.extend_from_slice(payload);
    pdu.resize(total - TRAILER_BYTES, 0); // PAD
    pdu.push(uu);
    pdu.push(cpi);
    pdu.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    let crc = crc32_aal5(&pdu);
    pdu.extend_from_slice(&crc.to_be_bytes());
    debug_assert_eq!(pdu.len() % ATM_PAYLOAD_BYTES, 0);
    pdu
}

/// Segment `payload` into ATM cells on `(vpi, vci)` (UU and CPI zero).
///
/// The CPCS-PDU is written straight into the cell payloads and its CRC
/// run over them as they fill: a non-final cell feeds the CRC six whole
/// eight-byte steps, the final one its 44 octets before the CRC field.
pub fn segment(payload: &[u8], vpi: u8, vci: u16) -> Vec<AtmCell> {
    assert!(payload.len() <= MAX_CPCS_PAYLOAD, "AAL5 payload exceeds 65535 bytes");
    let n = cells_for_pdu(payload.len());
    let mut cells = Vec::with_capacity(n);
    // Payload, 48 octets a cell; `AtmCell::new` zero-fills a short or
    // missing chunk, which is the PAD.
    let mut chunks = payload.chunks(ATM_PAYLOAD_BYTES);
    let mut header = CellHeader::data(vpi, vci);
    let mut crc = 0xFFFF_FFFF;
    for _ in 1..n {
        let cell = AtmCell::new(header, chunks.next().unwrap_or(&[]));
        crc = crc32_update(crc, &cell.payload);
        cells.push(cell);
    }
    // The last cell: at most 40 payload octets, then the trailer (UU and
    // CPI stay zero).
    header.pti = Pti::USER_DATA_END;
    let mut last = AtmCell::new(header, chunks.next().unwrap_or(&[]));
    const LENGTH_AT: usize = ATM_PAYLOAD_BYTES - 6;
    const CRC_AT: usize = ATM_PAYLOAD_BYTES - 4;
    last.payload[LENGTH_AT..CRC_AT].copy_from_slice(&(payload.len() as u16).to_be_bytes());
    crc = !crc32_update(crc, &last.payload[..CRC_AT]);
    last.payload[CRC_AT..].copy_from_slice(&crc.to_be_bytes());
    cells.push(last);
    cells
}

/// Reassembly failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassemblyError {
    /// CRC-32 over the CPCS-PDU did not match: payload corrupted in
    /// flight or cells lost mid-PDU.
    CrcMismatch,
    /// The trailer length field is inconsistent with the received size
    /// (classic symptom of a lost cell).
    LengthMismatch,
    /// PDU grew beyond the maximum possible size — end-bit cell lost.
    Oversize,
}

/// Per-VC AAL5 reassembler.
///
/// Corrupted or mutilated PDUs always surface as
/// `Some(Err(ReassemblyError))` counted in the per-cause error
/// counters — never a panic — so fault-injection runs can attribute
/// every discarded PDU.
#[derive(Default)]
pub struct Reassembler {
    buf: Vec<u8>,
    /// Completed PDUs delivered.
    pub pdus_ok: u64,
    /// PDUs discarded due to errors (sum of the per-cause counters).
    pub pdus_err: u64,
    /// PDUs discarded: CRC-32 mismatch.
    pub errs_crc: u64,
    /// PDUs discarded: trailer length inconsistent with received size.
    pub errs_length: u64,
    /// PDUs discarded: grew beyond the maximum size (lost end cell).
    pub errs_oversize: u64,
}

impl Reassembler {
    /// Create an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one cell payload. Returns `Some(Ok(payload))` when a PDU
    /// completes, `Some(Err(..))` when a PDU completes but fails
    /// validation, `None` while mid-PDU.
    pub fn push(&mut self, cell: &AtmCell) -> Option<Result<Vec<u8>, ReassemblyError>> {
        self.buf.extend_from_slice(&cell.payload);
        if !cell.header.pti.is_aal5_end() {
            // Guard against a lost end cell followed by the next PDU
            // streaming in forever.
            let max = cpcs_pdu_len(MAX_CPCS_PAYLOAD);
            if self.buf.len() > max {
                self.buf.clear();
                self.pdus_err += 1;
                self.errs_oversize += 1;
                return Some(Err(ReassemblyError::Oversize));
            }
            return None;
        }
        let pdu = std::mem::take(&mut self.buf);
        Some(self.validate(pdu))
    }

    fn validate(&mut self, pdu: Vec<u8>) -> Result<Vec<u8>, ReassemblyError> {
        // A well-formed PDU is a nonzero multiple of the cell payload
        // size; anything else (e.g. an end cell with no preceding data
        // from a hand-built cell stream) is an error, not a panic.
        if pdu.len() < TRAILER_BYTES || !pdu.len().is_multiple_of(ATM_PAYLOAD_BYTES) {
            self.pdus_err += 1;
            self.errs_length += 1;
            return Err(ReassemblyError::LengthMismatch);
        }
        // Never fire: the check above leaves at least a trailer, and the
        // two slices below are 4 and 2 bytes long.
        let body = &pdu[..pdu.len() - 4];
        let wire_crc = u32::from_be_bytes(pdu[pdu.len() - 4..].try_into().unwrap());
        if crc32_aal5(body) != wire_crc {
            self.pdus_err += 1;
            self.errs_crc += 1;
            return Err(ReassemblyError::CrcMismatch);
        }
        let len =
            u16::from_be_bytes(pdu[pdu.len() - 6..pdu.len() - 4].try_into().unwrap()) as usize;
        // The payload must fit in the PDU with pad < 48.
        if cpcs_pdu_len(len) != pdu.len() {
            self.pdus_err += 1;
            self.errs_length += 1;
            return Err(ReassemblyError::LengthMismatch);
        }
        self.pdus_ok += 1;
        let mut payload = pdu;
        payload.truncate(len);
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Segment and reassemble, surfacing the validation outcome instead
    /// of panicking on it — corrupted PDUs are an expected result here,
    /// not a test-harness crash.
    fn roundtrip(payload: &[u8]) -> Result<Vec<u8>, ReassemblyError> {
        let cells = segment(payload, 1, 100);
        let mut r = Reassembler::new();
        let mut out = None;
        for (i, c) in cells.iter().enumerate() {
            match r.push(c) {
                None => assert!(i + 1 < cells.len(), "no PDU after last cell"),
                Some(res) => {
                    assert_eq!(i + 1, cells.len(), "PDU completed early");
                    out = Some(res);
                }
            }
        }
        out.expect("no PDU produced")
    }

    #[test]
    fn roundtrip_various_sizes() {
        for len in [0usize, 1, 39, 40, 41, 47, 48, 88, 89, 96, 1000, 9180, 65535] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(roundtrip(&payload), Ok(payload), "len {len}");
        }
    }

    #[test]
    fn corrupt_streams_never_panic_and_count_per_cause() {
        // Regression for the old `expect("validation failed")` path:
        // every corruption must come back as a counted `Err`, never a
        // panic. Corrupt each cell position of a multi-cell PDU in turn.
        let payload: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let clean = segment(&payload, 0, 7);
        let mut r = Reassembler::new();
        let mut errs = 0u64;
        for pos in 0..clean.len() {
            for bit in [0x01u8, 0x80] {
                let mut cells = clean.clone();
                cells[pos].payload[17] ^= bit;
                for c in &cells {
                    if let Some(res) = r.push(c) {
                        assert!(res.is_err(), "corrupted PDU delivered as valid");
                        errs += 1;
                    }
                }
            }
        }
        assert_eq!(r.pdus_err, errs);
        assert_eq!(r.pdus_ok, 0);
        // Conservation: the total equals the per-cause sum.
        assert_eq!(r.pdus_err, r.errs_crc + r.errs_length + r.errs_oversize);
        assert!(r.errs_crc > 0);
        assert!(r.buf.is_empty());
    }

    #[test]
    fn corrupt_trailer_length_is_a_counted_error() {
        // Flip the trailer length field and fix up the CRC so only the
        // length check can catch it.
        let payload = vec![5u8; 100];
        let mut pdu = build_cpcs_pdu(&payload, 0, 0);
        let n = pdu.len();
        // Claim a length whose PDU would be a different cell count.
        pdu[n - 6..n - 4].copy_from_slice(&2000u16.to_be_bytes());
        let crc = crc32_aal5(&pdu[..n - 4]);
        pdu[n - 4..].copy_from_slice(&crc.to_be_bytes());
        let cells: Vec<AtmCell> = pdu
            .chunks(ATM_PAYLOAD_BYTES)
            .enumerate()
            .map(|(i, chunk)| {
                let mut header = CellHeader::data(0, 7);
                header.pti = if (i + 1) * ATM_PAYLOAD_BYTES == n {
                    Pti::USER_DATA_END
                } else {
                    Pti::USER_DATA
                };
                AtmCell::new(header, chunk)
            })
            .collect();
        let mut r = Reassembler::new();
        let mut last = None;
        for c in &cells {
            if let Some(res) = r.push(c) {
                last = Some(res);
            }
        }
        assert_eq!(last.unwrap().unwrap_err(), ReassemblyError::LengthMismatch);
        assert_eq!(r.errs_length, 1);
        assert_eq!(r.pdus_err, 1);
    }

    #[test]
    fn pdu_len_math() {
        // 40 bytes payload + 8 trailer = 48 exactly: one cell, no pad.
        assert_eq!(cpcs_pdu_len(40), 48);
        assert_eq!(cells_for_pdu(40), 1);
        // 41 bytes: spills into a second cell.
        assert_eq!(cpcs_pdu_len(41), 96);
        assert_eq!(cells_for_pdu(41), 2);
        // Empty payload still needs a cell for the trailer.
        assert_eq!(cells_for_pdu(0), 1);
    }

    #[test]
    fn efficiency_shape() {
        // Payload bits over wire bits: tiny payloads are brutally
        // inefficient; big ones approach 48/53 minus trailer amortization.
        let efficiency = |len: usize| (len as f64 * 8.0) / wire_bits_for_pdu(len) as f64;
        assert!(efficiency(1) < 0.02);
        let e64k = efficiency(65535);
        assert!(e64k > 0.90 && e64k < 48.0 / 53.0 + 1e-9, "{e64k}");
        // 9180-byte CLIP MTU: 192 cells for 9188 bytes.
        let e = efficiency(9180);
        assert!((e - (9180.0 * 8.0) / (192.0 * 53.0 * 8.0)).abs() < 1e-12);
    }

    #[test]
    fn payload_corruption_detected_by_crc() {
        let payload: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let mut cells = segment(&payload, 0, 7);
        cells[1].payload[10] ^= 0x01;
        let mut r = Reassembler::new();
        let mut result = None;
        for c in &cells {
            if let Some(res) = r.push(c) {
                result = Some(res);
            }
        }
        assert_eq!(result.unwrap().unwrap_err(), ReassemblyError::CrcMismatch);
        assert_eq!(r.pdus_err, 1);
    }

    #[test]
    fn lost_cell_detected() {
        let payload: Vec<u8> = (0..500).map(|i| i as u8).collect();
        let cells = segment(&payload, 0, 7);
        assert!(cells.len() > 2);
        let mut r = Reassembler::new();
        let mut result = None;
        for (i, c) in cells.iter().enumerate() {
            if i == 2 {
                continue; // drop one mid-PDU cell
            }
            if let Some(res) = r.push(c) {
                result = Some(res);
            }
        }
        // Either length or CRC flags it (CRC virtually always).
        assert!(result.unwrap().is_err());
    }

    #[test]
    fn lost_end_cell_merges_then_errors() {
        let a: Vec<u8> = vec![1; 100];
        let b: Vec<u8> = vec![2; 100];
        let mut cells_a = segment(&a, 0, 7);
        cells_a.pop(); // lose the end cell of PDU a
        let cells_b = segment(&b, 0, 7);
        let mut r = Reassembler::new();
        let mut last = None;
        for c in cells_a.iter().chain(cells_b.iter()) {
            if let Some(res) = r.push(c) {
                last = Some(res);
            }
        }
        // The merged monster PDU must be rejected, not silently delivered.
        assert!(last.unwrap().is_err());
    }

    #[test]
    fn back_to_back_pdus_on_same_vc() {
        let mut r = Reassembler::new();
        for k in 0..10u8 {
            let payload = vec![k; 60];
            for c in segment(&payload, 0, 9) {
                if let Some(res) = r.push(&c) {
                    assert_eq!(res.unwrap(), payload);
                }
            }
        }
        assert_eq!(r.pdus_ok, 10);
        assert!(r.buf.is_empty());
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/BZIP2 (same parameters as AAL5: MSB-first, init/xorout
        // all-ones): check("123456789") = 0xFC891918.
        assert_eq!(crc32_aal5(b"123456789"), 0xFC89_1918);
    }

    #[test]
    fn table_crc32_equals_bitwise_on_every_length() {
        // Every length 0..=200 covers all remainders mod 8 many times
        // over; 40 and 9180 are the PDU sizes the benchmark sends, whose
        // CRC runs over the padded PDU minus the 4 CRC octets.
        let mut rng = gtw_desim::StreamRng::new(1999, "crc32-equivalence");
        let lens = (0..=200).chain([cpcs_pdu_len(40) - 4, cpcs_pdu_len(9180) - 4, 65535]);
        for len in lens {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            assert_eq!(crc32_aal5(&buf), crc32_aal5_bitwise(&buf), "len {len}");
        }
    }

    #[test]
    fn last_cell_flagged() {
        let cells = segment(&[0u8; 100], 3, 33);
        let (last, rest) = cells.split_last().unwrap();
        assert!(last.header.pti.is_aal5_end());
        assert!(rest.iter().all(|c| !c.header.pti.is_aal5_end()));
        assert!(cells.iter().all(|c| c.header.vpi == 3 && c.header.vci == 33));
    }
}
