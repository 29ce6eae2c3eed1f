//! The ATM cell: 53 bytes on the wire, 5 of header, 48 of payload.
//!
//! The header layout implemented here is the UNI cell format:
//!
//! ```text
//!  bit  7   6   5   4   3   2   1   0
//!     +---------------+---------------+
//!  0  |      GFC      |   VPI (hi)    |
//!  1  |   VPI (lo)    |   VCI (hi)    |
//!  2  |            VCI (mid)          |
//!  3  |   VCI (lo)    |    PTI    |CLP|
//!  4  |              HEC              |
//!     +-------------------------------+
//! ```
//!
//! The HEC is a real CRC-8 (polynomial x⁸+x²+x+1, XORed with 0x55 per
//! ITU-T I.432) over the first four header octets, so corruption models in
//! the link layer are detected exactly the way real hardware detects them.

/// Total cell size on the wire.
pub const ATM_CELL_BYTES: usize = 53;
/// Payload carried per cell.
pub const ATM_PAYLOAD_BYTES: usize = 48;

/// One step of the bit-at-a-time CRC-8: `crc` shifted through eight
/// times under the generator x⁸ + x² + x + 1 (0x07).
const fn crc8_shift(mut crc: u8) -> u8 {
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 0x80 != 0 { (crc << 1) ^ 0x07 } else { crc << 1 };
        bit += 1;
    }
    crc
}

static CRC8_TABLE: [u8; 256] = const {
    let mut t = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = crc8_shift(b as u8);
        b += 1;
    }
    t
};

/// CRC-8 with generator x⁸ + x² + x + 1 (0x07), as used by the ATM HEC.
fn crc8_atm(data: &[u8]) -> u8 {
    data.iter().fold(0, |crc, &byte| CRC8_TABLE[(crc ^ byte) as usize])
}

/// The bit-at-a-time definition [`crc8_atm`] must agree with.
#[cfg(test)]
fn crc8_atm_bitwise(data: &[u8]) -> u8 {
    data.iter().fold(0, |crc, &byte| crc8_shift(crc ^ byte))
}

/// The ITU-T I.432 coset leader added to the HEC.
const HEC_COSET: u8 = 0x55;

/// Payload type indicator (3 bits). For AAL5, bit 0 of the PTI marks the
/// last cell of a CPCS-PDU.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Pti(pub u8);

impl Pti {
    /// User data, not last cell of an AAL5 PDU.
    pub const USER_DATA: Pti = Pti(0b000);
    /// User data, last cell of an AAL5 PDU (AUU = 1).
    pub const USER_DATA_END: Pti = Pti(0b001);
    /// Whether this PTI marks the end of an AAL5 PDU.
    pub fn is_aal5_end(self) -> bool {
        self.0 & 0b001 != 0 && self.0 & 0b100 == 0
    }
}

/// The 4-octet logical header content (the HEC is derived).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellHeader {
    /// Generic flow control (UNI only), 4 bits.
    pub gfc: u8,
    /// Virtual path identifier, 8 bits at the UNI.
    pub vpi: u8,
    /// Virtual channel identifier, 16 bits.
    pub vci: u16,
    /// Payload type indicator, 3 bits.
    pub pti: Pti,
    /// Cell loss priority: cells with `clp = true` are dropped first under
    /// congestion.
    pub clp: bool,
}

impl CellHeader {
    /// A plain user-data header on `(vpi, vci)`.
    pub fn data(vpi: u8, vci: u16) -> Self {
        CellHeader { gfc: 0, vpi, vci, pti: Pti::USER_DATA, clp: false }
    }

    /// Pack into the four header octets (without HEC).
    pub fn pack(&self) -> [u8; 4] {
        debug_assert!(self.gfc < 16, "GFC is 4 bits");
        debug_assert!(self.pti.0 < 8, "PTI is 3 bits");
        [
            (self.gfc << 4) | (self.vpi >> 4),
            (self.vpi << 4) | ((self.vci >> 12) as u8 & 0x0f),
            (self.vci >> 4) as u8,
            ((self.vci << 4) as u8) | (self.pti.0 << 1) | self.clp as u8,
        ]
    }

    /// Unpack from the four header octets.
    pub fn unpack(b: [u8; 4]) -> Self {
        CellHeader {
            gfc: b[0] >> 4,
            vpi: (b[0] << 4) | (b[1] >> 4),
            vci: (((b[1] & 0x0f) as u16) << 12) | ((b[2] as u16) << 4) | ((b[3] >> 4) as u16),
            pti: Pti((b[3] >> 1) & 0b111),
            clp: b[3] & 1 != 0,
        }
    }

    /// Compute the HEC octet for this header.
    pub fn hec(&self) -> u8 {
        crc8_atm(&self.pack()) ^ HEC_COSET
    }
}

/// A complete ATM cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AtmCell {
    /// The logical header.
    pub header: CellHeader,
    /// Exactly 48 payload octets.
    pub payload: [u8; ATM_PAYLOAD_BYTES],
}

impl AtmCell {
    /// Build a cell; `payload` shorter than 48 bytes is zero-padded (the
    /// AAL's padding responsibility, exposed here for tests).
    pub fn new(header: CellHeader, payload: &[u8]) -> Self {
        assert!(payload.len() <= ATM_PAYLOAD_BYTES, "payload exceeds 48 bytes");
        let mut p = [0u8; ATM_PAYLOAD_BYTES];
        p[..payload.len()].copy_from_slice(payload);
        AtmCell { header, payload: p }
    }

    /// Serialize to the 53 wire octets (header, HEC, payload).
    pub fn to_wire(&self) -> [u8; ATM_CELL_BYTES] {
        let mut w = [0u8; ATM_CELL_BYTES];
        let h = self.header.pack();
        w[..4].copy_from_slice(&h);
        w[4] = self.header.hec();
        w[5..].copy_from_slice(&self.payload);
        w
    }

    /// Parse from wire octets, verifying the HEC. Returns `None` on a HEC
    /// mismatch (header corruption detected — real switches discard such
    /// cells).
    pub fn from_wire(w: &[u8; ATM_CELL_BYTES]) -> Option<Self> {
        let mut hb = [0u8; 4];
        hb.copy_from_slice(&w[..4]);
        let header = CellHeader::unpack(hb);
        if header.hec() != w[4] {
            return None;
        }
        let mut payload = [0u8; ATM_PAYLOAD_BYTES];
        payload.copy_from_slice(&w[5..]);
        Some(AtmCell { header, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_pack_unpack_roundtrip() {
        let h = CellHeader { gfc: 0x5, vpi: 0xAB, vci: 0x1234, pti: Pti(0b101), clp: true };
        assert_eq!(CellHeader::unpack(h.pack()), h);
    }

    #[test]
    fn header_roundtrip_exhaustive_corners() {
        for &vpi in &[0u8, 1, 0x0f, 0xf0, 0xff] {
            for &vci in &[0u16, 1, 0x00ff, 0xff00, 0xffff] {
                for pti in 0..8u8 {
                    for &clp in &[false, true] {
                        let h = CellHeader { gfc: 0, vpi, vci, pti: Pti(pti), clp };
                        assert_eq!(CellHeader::unpack(h.pack()), h);
                    }
                }
            }
        }
    }

    #[test]
    fn hec_detects_single_bit_errors() {
        let h = CellHeader::data(3, 77);
        let cell = AtmCell::new(h, b"hello");
        let wire = cell.to_wire();
        // Flip every single header bit: all must be detected.
        for byte in 0..5 {
            for bit in 0..8 {
                let mut corrupted = wire;
                corrupted[byte] ^= 1 << bit;
                assert!(
                    AtmCell::from_wire(&corrupted).is_none(),
                    "undetected corruption at byte {byte} bit {bit}"
                );
            }
        }
        // Untouched cell parses.
        assert_eq!(AtmCell::from_wire(&wire).unwrap(), cell);
    }

    #[test]
    fn payload_corruption_is_not_hec_detected() {
        // The HEC only covers the header; payload integrity is AAL5's job.
        let cell = AtmCell::new(CellHeader::data(0, 42), b"payload");
        let mut wire = cell.to_wire();
        wire[10] ^= 0xff;
        assert!(AtmCell::from_wire(&wire).is_some());
    }

    #[test]
    fn short_payload_zero_padded() {
        let cell = AtmCell::new(CellHeader::data(0, 1), b"ab");
        assert_eq!(&cell.payload[..2], b"ab");
        assert!(cell.payload[2..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "exceeds 48")]
    fn oversize_payload_panics() {
        let _ = AtmCell::new(CellHeader::data(0, 1), &[0u8; 49]);
    }

    #[test]
    fn aal5_end_flag() {
        assert!(!Pti::USER_DATA.is_aal5_end());
        assert!(Pti::USER_DATA_END.is_aal5_end());
        assert!(!Pti(0b100).is_aal5_end()); // OAM cell, not user data
        assert!(!Pti(0b101).is_aal5_end());
    }

    #[test]
    fn table_hec_equals_bitwise_on_all_vcis() {
        for vci in 0..=u16::MAX {
            for &vpi in &[0u8, 1, 0x0f, 0xf0, 0xff] {
                for &(pti, clp) in &[(0u8, false), (1, false), (7, true)] {
                    let h = CellHeader { gfc: 0, vpi, vci, pti: Pti(pti), clp }.pack();
                    assert_eq!(crc8_atm(&h), crc8_atm_bitwise(&h), "header {h:02x?}");
                }
            }
        }
        assert_eq!(crc8_atm_bitwise(b"123456789"), 0xF4);
    }

    #[test]
    fn crc8_known_vector() {
        // CRC-8/ATM ("CRC-8" in crccalc): check value for "123456789" is
        // 0xF4 for poly 0x07, init 0.
        assert_eq!(crc8_atm(b"123456789"), 0xF4);
    }
}
