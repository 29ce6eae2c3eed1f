//! Message envelopes: self-describing typed payloads.
//!
//! The MPI-2 language-interoperability requirement means a Fortran
//! producer and a C consumer (or here: any two Rust components) must agree
//! on what a message holds. Every envelope therefore carries a
//! [`Datatype`] tag: the tag and [`Datatype::elem_bytes`] are the
//! language-neutral description of the payload and the unit it is costed
//! in — [`Envelope::byte_len`] is `count × elem_bytes`, the size the
//! message would have on a wire, whatever the host stores. The buffer
//! itself stays in host layout, as the sender's `Vec<T>` in the
//! [`Buffer`] variant of its type: every rank is a thread of one process,
//! no rank is in another address space, and so a byte encoding would only
//! be written to be read back. A message is copied once, out of the
//! sender's slice; a receive matches the variant and takes the `Vec`
//! ([`Envelope::try_payload`], the one checked way out).

use crate::error::{CommError, CommResult};

/// Message tag (like `MPI_TAG`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tag(pub u32);

/// Wildcard source for receives.
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag for receives.
pub const ANY_TAG: Tag = Tag(u32::MAX);

/// A message in flight.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank (world index).
    pub src: usize,
    /// Destination rank (world index).
    pub dst: usize,
    /// Tag.
    pub tag: Tag,
    data: Buffer,
}

impl Envelope {
    /// An envelope of `data` from global id `src` to global id `dst`.
    pub fn new<T: Payload>(src: usize, dst: usize, tag: Tag, data: Vec<T>) -> Self {
        Envelope { src, dst, tag, data: T::into_buffer(data) }
    }

    /// Payload size in wire bytes: what [`crate::CommCost`], a
    /// [`crate::Status`] and the trace charge for this message.
    pub fn byte_len(&self) -> usize {
        self.count() * self.datatype().elem_bytes()
    }

    /// The payload as `T`s — the one place a receive checks the declared
    /// datatype. Fails with [`CommError::Datatype`] when the envelope
    /// holds another element type.
    pub fn try_payload<T: Payload>(self) -> CommResult<Vec<T>> {
        let (found, bytes) = (self.datatype(), self.byte_len());
        T::from_buffer(self.data).ok_or(CommError::Datatype { expected: T::DATATYPE, found, bytes })
    }

    /// [`Envelope::try_payload`] for the blocking API, where a datatype
    /// error is a bug and panics (matching MPI's `MPI_ERR_TYPE` fatality).
    pub fn payload<T: Payload>(self) -> Vec<T> {
        // Fires only on the receiver's bug, the fatal error documented above.
        self.try_payload().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// An element type that can travel in an [`Envelope`], and the
/// [`Datatype`] tag that describes it to the receiver.
pub trait Payload: Copy + Send + 'static {
    /// The tag an envelope of `Self` elements carries.
    const DATATYPE: Datatype;

    /// `data` as the [`Buffer`] variant of `Self`.
    fn into_buffer(data: Vec<Self>) -> Buffer;

    /// The elements of `buffer` if it is the variant of `Self`.
    fn from_buffer(buffer: Buffer) -> Option<Vec<Self>>;
}

/// One list of the element types a message can carry, and from it
/// their [`Datatype`] tags, sizes, [`Buffer`] variants and [`Payload`]
/// impls: a variant is named as its tag is.
macro_rules! element_types {
    ($($dt:ident($t:ty): $doc:literal),*) => {
        /// Element type of a message payload.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Datatype {
            $(#[doc = $doc] $dt,)*
        }

        impl Datatype {
            /// Size of one element in bytes.
            pub fn elem_bytes(self) -> usize {
                match self {
                    $(Datatype::$dt => std::mem::size_of::<$t>(),)*
                }
            }
        }

        /// An envelope's buffer: the sender's elements, in the variant of
        /// their [`Datatype`].
        #[derive(Debug)]
        pub enum Buffer {
            $(#[doc = $doc] $dt(Vec<$t>),)*
        }

        impl Envelope {
            /// Element type of the payload.
            pub fn datatype(&self) -> Datatype {
                match self.data {
                    $(Buffer::$dt(_) => Datatype::$dt,)*
                }
            }

            /// Number of elements of the declared datatype.
            pub fn count(&self) -> usize {
                match &self.data {
                    $(Buffer::$dt(data) => data.len(),)*
                }
            }
        }

        $(impl Payload for $t {
            const DATATYPE: Datatype = Datatype::$dt;

            fn into_buffer(data: Vec<Self>) -> Buffer {
                Buffer::$dt(data)
            }

            fn from_buffer(buffer: Buffer) -> Option<Vec<Self>> {
                let Buffer::$dt(data) = buffer else { return None };
                Some(data)
            }
        })*
    };
}

element_types!(
    U8(u8): "Raw bytes.",
    U64(u64): "`u64`.",
    I64(i64): "`i64`.",
    F32(f32): "IEEE-754 `f32`.",
    F64(f64): "IEEE-754 `f64`."
);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn read_as<T: Payload, U: Payload>(data: &[T]) -> CommResult<Vec<U>> {
        Envelope::new(0, 1, Tag(3), data.to_vec()).try_payload()
    }

    /// An envelope of `data` reports what was sent, refuses each of the
    /// four other element types with a typed error naming the one it
    /// holds, and gives the sent bits back as its own type.
    fn holds<T: Payload>(data: &[T], bits: fn(T) -> u64) -> bool {
        let e = Envelope::new(0, 1, Tag(3), data.to_vec());
        let (found, bytes) = (T::DATATYPE, std::mem::size_of_val(data));
        let shape = (e.datatype(), e.count(), e.byte_len()) == (found, data.len(), bytes);
        let as_each = [
            (Datatype::U8, read_as::<T, u8>(data).map(drop)),
            (Datatype::U64, read_as::<T, u64>(data).map(drop)),
            (Datatype::I64, read_as::<T, i64>(data).map(drop)),
            (Datatype::F32, read_as::<T, f32>(data).map(drop)),
            (Datatype::F64, read_as::<T, f64>(data).map(drop)),
        ];
        let refused = as_each.into_iter().all(|(expected, got)| match expected == found {
            true => got.is_ok(),
            false => got == Err(CommError::Datatype { expected, found, bytes }),
        });
        let back = read_as::<T, T>(data).expect("its own type reads back");
        shape && refused && back.into_iter().map(bits).eq(data.iter().map(|&x| bits(x)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every element type at random lengths 0–64; a quarter of the
        /// floats are NaNs with random payloads and a quarter are −0.0.
        #[test]
        fn buffers_keep_type_count_and_bits(
            words in proptest::collection::vec(any::<u64>(), 0..=64)
        ) {
            let f64s = words.iter().map(|&w| match w % 4 {
                0 => f64::from_bits(0x7ff8_0000_0000_0000 | w >> 13),
                1 => -0.0,
                _ => f64::from_bits(w),
            });
            let f32s = words.iter().map(|&w| match w % 4 {
                0 => f32::from_bits(0x7fc0_0000 | (w >> 42) as u32),
                1 => -0.0,
                _ => f32::from_bits(w as u32),
            });
            prop_assert!(holds(&words.iter().map(|&w| w as u8).collect::<Vec<_>>(), u64::from));
            prop_assert!(holds(&words, |x| x));
            prop_assert!(holds(&words.iter().map(|&w| w as i64).collect::<Vec<_>>(), |x| x as u64));
            prop_assert!(holds(&f32s.collect::<Vec<_>>(), |x| u64::from(x.to_bits())));
            prop_assert!(holds(&f64s.collect::<Vec<_>>(), f64::to_bits));
        }
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
