//! Message envelopes: self-describing typed payloads.
//!
//! The MPI-2 language-interoperability requirement means a Fortran
//! producer and a C consumer (or here: any two Rust components) must agree
//! on the wire format. Payloads therefore carry a [`Datatype`] tag and are
//! stored in a defined little-endian byte layout; [`Payload`] is that
//! layout for the common scientific types, and
//! [`Envelope::try_payload`] the one checked way back out of it.

use bytes::Bytes;

use crate::error::{CommError, CommResult};

/// Message tag (like `MPI_TAG`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tag(pub u32);

/// Wildcard source for receives.
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag for receives.
pub const ANY_TAG: Tag = Tag(u32::MAX);

/// Element type of a message payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Datatype {
    /// Raw bytes.
    U8,
    /// Little-endian `u64`.
    U64,
    /// Little-endian `i64`.
    I64,
    /// Little-endian IEEE-754 `f32`.
    F32,
    /// Little-endian IEEE-754 `f64`.
    F64,
}

impl Datatype {
    /// Size of one element in bytes.
    pub fn elem_bytes(self) -> usize {
        match self {
            Datatype::U8 => 1,
            Datatype::F32 => 4,
            Datatype::U64 | Datatype::I64 | Datatype::F64 => 8,
        }
    }
}

/// A message in flight.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending rank (world index).
    pub src: usize,
    /// Destination rank (world index).
    pub dst: usize,
    /// Tag.
    pub tag: Tag,
    /// Element type of `data`.
    pub datatype: Datatype,
    /// Payload bytes (little-endian element layout).
    pub data: Bytes,
}

impl Envelope {
    /// Number of elements of the declared datatype.
    pub fn count(&self) -> usize {
        self.data.len() / self.datatype.elem_bytes()
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// The payload as `T`s — the one place a receive checks the declared
    /// datatype and decodes. Fails with [`CommError::Datatype`] when the
    /// envelope declares another element type or its byte length is not a
    /// whole number of elements.
    pub fn try_payload<T: Payload>(&self) -> CommResult<Vec<T>> {
        let unreadable = CommError::Datatype {
            expected: T::DATATYPE,
            found: self.datatype,
            bytes: self.data.len(),
        };
        if self.datatype != T::DATATYPE {
            return Err(unreadable);
        }
        T::decode(&self.data).ok_or(unreadable)
    }

    /// [`Envelope::try_payload`] for the blocking API, where a datatype
    /// error is a bug and panics (matching MPI's `MPI_ERR_TYPE` fatality).
    pub fn payload<T: Payload>(&self) -> Vec<T> {
        self.try_payload().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// An element type that can travel in an [`Envelope`]: its [`Datatype`]
/// tag and its defined little-endian byte layout.
pub trait Payload: Copy {
    /// The tag an envelope of `Self` elements carries.
    const DATATYPE: Datatype;

    /// Encode a slice to little-endian bytes.
    fn encode(v: &[Self]) -> Bytes;

    /// Decode little-endian bytes; `None` when the length is not a whole
    /// number of elements.
    fn decode(b: &Bytes) -> Option<Vec<Self>>;
}

impl Payload for u8 {
    const DATATYPE: Datatype = Datatype::U8;

    fn encode(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }

    fn decode(b: &Bytes) -> Option<Vec<u8>> {
        Some(b.to_vec())
    }
}

macro_rules! le_payload {
    ($($t:ty => $datatype:ident),*) => {$(
        impl Payload for $t {
            const DATATYPE: Datatype = Datatype::$datatype;

            fn encode(v: &[$t]) -> Bytes {
                let mut out = Vec::with_capacity(std::mem::size_of_val(v));
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Bytes::from(out)
            }

            fn decode(b: &Bytes) -> Option<Vec<$t>> {
                const N: usize = std::mem::size_of::<$t>();
                if b.len() % N != 0 {
                    return None;
                }
                Some(
                    b.chunks_exact(N)
                        .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunk of N bytes")))
                        .collect(),
                )
            }
        }
    )*};
}

le_payload!(u64 => U64, i64 => I64, f32 => F32, f64 => F64);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Payload>(v: &[T]) -> Vec<T> {
        T::decode(&T::encode(v)).expect("whole number of elements")
    }

    #[test]
    fn f64_roundtrip() {
        let v = vec![0.0, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn f32_roundtrip() {
        let v = vec![0.0f32, -2.25, 1e30, f32::EPSILON];
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn u64_i64_roundtrip() {
        let u = vec![0u64, 1, u64::MAX];
        assert_eq!(roundtrip(&u), u);
        let i = vec![0i64, -1, i64::MIN, i64::MAX];
        assert_eq!(roundtrip(&i), i);
    }

    fn envelope(datatype: Datatype, data: Bytes) -> Envelope {
        Envelope { src: 0, dst: 1, tag: Tag(3), datatype, data }
    }

    #[test]
    fn envelope_counts() {
        let e = envelope(Datatype::F64, f64::encode(&[1.0, 2.0, 3.0]));
        assert_eq!(e.count(), 3);
        assert_eq!(e.byte_len(), 24);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn misaligned_decode_panics() {
        let _ = envelope(Datatype::F64, Bytes::from(vec![0u8; 7])).payload::<f64>();
    }

    #[test]
    fn unreadable_payloads_are_typed_errors() {
        let ragged = envelope(Datatype::F64, Bytes::from(vec![0u8; 7]));
        assert_eq!(
            ragged.try_payload::<f64>(),
            Err(CommError::Datatype { expected: Datatype::F64, found: Datatype::F64, bytes: 7 })
        );
        let other = envelope(Datatype::U64, u64::encode(&[1]));
        assert_eq!(
            other.try_payload::<f64>(),
            Err(CommError::Datatype { expected: Datatype::F64, found: Datatype::U64, bytes: 8 })
        );
        assert_eq!(other.try_payload::<u64>(), Ok(vec![1]));
    }

    #[test]
    fn datatype_sizes() {
        assert_eq!(Datatype::U8.elem_bytes(), 1);
        assert_eq!(Datatype::F32.elem_bytes(), 4);
        assert_eq!(Datatype::F64.elem_bytes(), 8);
        assert_eq!(Datatype::U64.elem_bytes(), 8);
        assert_eq!(Datatype::I64.elem_bytes(), 8);
    }
}
