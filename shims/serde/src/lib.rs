//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! the minimal serialization machinery it actually uses: a JSON-shaped
//! [`Value`] tree, a [`Serialize`] trait producing it, and derive macros
//! (re-exported from the sibling `serde_derive` proc-macro crate) for structs
//! and enums.  `Deserialize` exists only as a marker so the seed code's
//! `#[derive(Serialize, Deserialize)]` lines compile unchanged; nothing in
//! the workspace deserializes at runtime.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree, the target of all serialization.
///
/// Object keys keep insertion order so dumped experiment JSON matches the
/// field order of the Rust structs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (needed for `u64` values above `i64::MAX`).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

/// Types that can be turned into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Marker trait kept so `#[derive(Deserialize)]` in the seed code compiles;
/// the workspace never deserializes at runtime.
pub trait Deserialize {}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(i64::from(*self))
            }
        }
        impl Deserialize for $t {}
    )*};
}

impl_int!(i8, i16, i32, u8, u16, u32, i64);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::UInt(*self)
    }
}
impl Deserialize for u64 {}

impl Serialize for u128 {
    fn to_value(&self) -> Value {
        // JSON has no 128-bit integer; a decimal string keeps every value
        // exact (and byte-stable) instead of silently rounding through f64.
        Value::Str(self.to_string())
    }
}
impl Deserialize for u128 {}

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}
impl Deserialize for usize {}

impl Serialize for isize {
    fn to_value(&self) -> Value {
        Value::Int(*self as i64)
    }
}
impl Deserialize for isize {}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}
impl Deserialize for f32 {}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl Deserialize for f64 {}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {}

/// A hand-built tree (e.g. a record assembled key by key) serializes as
/// itself.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}
impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}
impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_serialize() {
        assert_eq!(3i32.to_value(), Value::Int(3));
        assert_eq!(3u64.to_value(), Value::UInt(3));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
        assert_eq!("x".to_string().to_value(), Value::Str("x".into()));
    }

    #[test]
    fn containers_serialize() {
        assert_eq!(
            vec![1i32, 2].to_value(),
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        );
        assert_eq!(None::<i32>.to_value(), Value::Null);
        assert_eq!(Some(2i32).to_value(), Value::Int(2));
        assert_eq!(
            (1i8, 0.5f64).to_value(),
            Value::Array(vec![Value::Int(1), Value::Float(0.5)])
        );
    }
}
