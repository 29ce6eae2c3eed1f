//! Classical IP over ATM (RFC 1577 style) — packet sizing and MTU math.
//!
//! The testbed ran IP over AAL5 with LLC/SNAP encapsulation. The paper
//! emphasizes MTU: the Fore 622 Mbit/s adapters support "large MTU sizes",
//! letting 64 KByte IP packets travel end-to-end, which is what makes the
//! 430 Mbit/s TCP rates over HiPPI possible. This module provides the
//! datagram/fragment arithmetic used by the TCP model and the transfer
//! experiments.

use crate::units::DataSize;

/// IPv4 header size (no options).
pub const IP_HEADER_BYTES: u64 = 20;
/// TCP header size (no options).
pub const TCP_HEADER_BYTES: u64 = 20;
/// Default MTU of classical IP over ATM (RFC 1577/2225).
pub const CLIP_DEFAULT_MTU: u64 = 9180;
/// The 64 KByte MTU the testbed used via the Fore adapters. An IPv4
/// datagram tops out at 65535 bytes; "64 KByte MTU" in the paper means
/// the adapter allows datagrams up to that limit.
pub const FORE_LARGE_MTU: u64 = 65535;
/// Classic Ethernet MTU, for contrast experiments.
pub const ETHERNET_MTU: u64 = 1500;

/// MTU-derived sizing for a TCP connection.
#[derive(Clone, Copy, Debug)]
pub struct IpConfig {
    /// Path MTU: maximum IP datagram size.
    pub mtu: u64,
}

impl IpConfig {
    /// Classical IP over ATM default.
    pub fn clip_default() -> Self {
        IpConfig { mtu: CLIP_DEFAULT_MTU }
    }

    /// The testbed's large-MTU configuration.
    pub fn large_mtu() -> Self {
        IpConfig { mtu: FORE_LARGE_MTU }
    }

    /// Maximum TCP segment payload (MSS) under this MTU.
    pub fn mss(&self) -> u64 {
        assert!(self.mtu > IP_HEADER_BYTES + TCP_HEADER_BYTES, "MTU too small for TCP/IP headers");
        self.mtu - IP_HEADER_BYTES - TCP_HEADER_BYTES
    }

    /// IP datagram size for a TCP segment carrying `payload` bytes.
    pub fn segment_ip_bytes(&self, payload: u64) -> DataSize {
        debug_assert!(payload <= self.mss());
        DataSize::from_bytes(payload + IP_HEADER_BYTES + TCP_HEADER_BYTES)
    }

    /// Number of full-MSS segments plus tail for `total` payload bytes.
    pub fn segments_for(&self, total: u64) -> u64 {
        total.div_ceil(self.mss()).max(if total == 0 { 0 } else { 1 })
    }

    /// Header overhead fraction of a full-size segment (headers / MTU).
    pub fn header_overhead(&self) -> f64 {
        (IP_HEADER_BYTES + TCP_HEADER_BYTES) as f64 / self.mtu as f64
    }
}

/// IP fragmentation of a UDP-style datagram: fragment payloads are
/// multiples of 8 bytes except the last. Returns the IP sizes of each
/// fragment (header included). Used for the raw-stream experiments (video
/// frames over classical IP).
pub fn fragment_sizes(payload: u64, mtu: u64) -> Vec<DataSize> {
    assert!(mtu > IP_HEADER_BYTES, "mtu must exceed the IP header");
    let max_frag_payload = ((mtu - IP_HEADER_BYTES) / 8) * 8;
    if payload == 0 {
        return vec![DataSize::from_bytes(IP_HEADER_BYTES)];
    }
    let mut out = Vec::new();
    let mut remaining = payload;
    while remaining > 0 {
        let take = remaining.min(max_frag_payload);
        out.push(DataSize::from_bytes(take + IP_HEADER_BYTES));
        remaining -= take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mss_math() {
        assert_eq!(IpConfig::clip_default().mss(), 9140);
        assert_eq!(IpConfig::large_mtu().mss(), 65495);
        assert_eq!(IpConfig { mtu: ETHERNET_MTU }.mss(), 1460);
    }

    #[test]
    fn segment_counts() {
        let cfg = IpConfig { mtu: 1500 };
        assert_eq!(cfg.segments_for(0), 0);
        assert_eq!(cfg.segments_for(1), 1);
        assert_eq!(cfg.segments_for(1460), 1);
        assert_eq!(cfg.segments_for(1461), 2);
        assert_eq!(cfg.segments_for(14600), 10);
    }

    #[test]
    fn large_mtu_has_tiny_overhead() {
        assert!(IpConfig::large_mtu().header_overhead() < 0.001);
        assert!(IpConfig { mtu: ETHERNET_MTU }.header_overhead() > 0.025);
    }

    #[test]
    fn fragmentation_reassembles_to_payload() {
        for payload in [0u64, 1, 100, 9160, 9161, 65535, 100_000] {
            for mtu in [576u64, 1500, 9180] {
                let frags = fragment_sizes(payload, mtu);
                let total: u64 = frags.iter().map(|f| f.bytes() - IP_HEADER_BYTES).sum();
                assert_eq!(total, payload, "payload {payload} mtu {mtu}");
                // All but last fragment payloads are multiples of 8.
                for f in &frags[..frags.len().saturating_sub(1)] {
                    assert_eq!((f.bytes() - IP_HEADER_BYTES) % 8, 0);
                    assert!(f.bytes() <= mtu);
                }
            }
        }
    }

    #[test]
    fn single_fragment_when_it_fits() {
        let frags = fragment_sizes(1000, 1500);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].bytes(), 1020);
    }

    #[test]
    #[should_panic(expected = "MTU too small")]
    fn tiny_mtu_rejected() {
        let _ = IpConfig { mtu: 30 }.mss();
    }
}
