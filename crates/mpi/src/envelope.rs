//! Message envelopes: self-describing typed payloads.
//!
//! The MPI-2 language-interoperability requirement means a Fortran
//! producer and a C consumer (or here: any two Rust components) must agree
//! on what a message holds. Every envelope therefore carries a
//! [`Datatype`] tag: the tag and [`Datatype::elem_bytes`] are the
//! language-neutral description of the payload and the unit it is costed
//! in — [`Envelope::byte_len`] is `count × elem_bytes`, the size the
//! message would have on a wire, whatever the host stores. The buffer
//! itself stays in host layout, as the sender's `Vec<T>`: every rank is a
//! thread of one process, no rank is in another address space, and so a
//! byte encoding would only be written to be read back. A message is
//! copied once, out of the sender's slice; a receive checks the tag and
//! takes the `Vec` ([`Envelope::try_payload`], the one checked way out).

use std::any::Any;

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
    /// `u64`.
    U64,
    /// `i64`.
    I64,
    /// IEEE-754 `f32`.
    F32,
    /// IEEE-754 `f64`.
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
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank (world index).
    pub src: usize,
    /// Destination rank (world index).
    pub dst: usize,
    /// Tag.
    pub tag: Tag,
    // Private, because they must agree: `data` is a `Vec<T>` of `count`
    // elements with `T::DATATYPE == datatype`.
    datatype: Datatype,
    count: usize,
    data: Box<dyn Any + Send>,
}

impl Envelope {
    /// An envelope of `data` from global id `src` to global id `dst`.
    pub fn new<T: Payload>(src: usize, dst: usize, tag: Tag, data: Vec<T>) -> Self {
        Envelope { src, dst, tag, datatype: T::DATATYPE, count: data.len(), data: Box::new(data) }
    }

    /// Element type of the payload.
    pub fn datatype(&self) -> Datatype {
        self.datatype
    }

    /// Number of elements of the declared datatype.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Payload size in wire bytes: what [`crate::CommCost`], a
    /// [`crate::Status`] and the trace charge for this message.
    pub fn byte_len(&self) -> usize {
        self.count * self.datatype.elem_bytes()
    }

    /// The payload as `T`s — the one place a receive checks the declared
    /// datatype. Fails with [`CommError::Datatype`] when the envelope
    /// holds another element type.
    pub fn try_payload<T: Payload>(self) -> CommResult<Vec<T>> {
        let (found, bytes) = (self.datatype, self.byte_len());
        match self.data.downcast::<Vec<T>>() {
            Ok(data) => Ok(*data),
            Err(_) => Err(CommError::Datatype { expected: T::DATATYPE, found, bytes }),
        }
    }

    /// [`Envelope::try_payload`] for the blocking API, where a datatype
    /// error is a bug and panics (matching MPI's `MPI_ERR_TYPE` fatality).
    pub fn payload<T: Payload>(self) -> Vec<T> {
        self.try_payload().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// An element type that can travel in an [`Envelope`], and the
/// [`Datatype`] tag that describes it to the receiver.
pub trait Payload: Copy + Send + 'static {
    /// The tag an envelope of `Self` elements carries.
    const DATATYPE: Datatype;
}

impl Payload for u8 {
    const DATATYPE: Datatype = Datatype::U8;
}
impl Payload for u64 {
    const DATATYPE: Datatype = Datatype::U64;
}
impl Payload for i64 {
    const DATATYPE: Datatype = Datatype::I64;
}
impl Payload for f32 {
    const DATATYPE: Datatype = Datatype::F32;
}
impl Payload for f64 {
    const DATATYPE: Datatype = Datatype::F64;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Payload>(v: &[T]) -> Vec<T> {
        Envelope::new(0, 1, Tag(3), v.to_vec()).payload()
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

    #[test]
    fn envelope_counts() {
        let e = Envelope::new(0, 1, Tag(3), vec![1.0f64, 2.0, 3.0]);
        assert_eq!((e.datatype(), e.count(), e.byte_len()), (Datatype::F64, 3, 24));
        let e = Envelope::new(0, 1, Tag(3), Vec::<f32>::new());
        assert_eq!((e.datatype(), e.count(), e.byte_len()), (Datatype::F32, 0, 0));
    }

    #[test]
    fn unreadable_payloads_are_typed_errors() {
        let other = || Envelope::new(0, 1, Tag(3), vec![1u64, 2]);
        assert_eq!(
            other().try_payload::<f64>(),
            Err(CommError::Datatype { expected: Datatype::F64, found: Datatype::U64, bytes: 16 })
        );
        // Same element size, same bits, still another type.
        assert_eq!(
            other().try_payload::<i64>(),
            Err(CommError::Datatype { expected: Datatype::I64, found: Datatype::U64, bytes: 16 })
        );
        assert_eq!(other().try_payload::<u64>(), Ok(vec![1, 2]));
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
