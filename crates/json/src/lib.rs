//! Dependency-free JSON for WARLOCK reports.
//!
//! The workspace builds in environments without crates.io access, so it
//! cannot depend on `serde`/`serde_json`. This crate provides the small
//! JSON kernel the advisory service needs: an order-preserving value
//! type ([`Json`]), a serializer (compact and pretty), a strict parser,
//! and the [`ToJson`]/[`FromJson`] conversion traits reports implement.
//!
//! Numbers are split into [`Json::Int`] (exact `i64`) and [`Json::Num`]
//! (`f64`) so counters survive round-trips bit-exactly; floats rely on
//! Rust's shortest round-trip `Display` formatting.

#![warn(missing_docs)]

pub mod parse;
pub mod value;

pub use parse::{parse, JsonError};
pub use value::Json;

/// Types that can serialize themselves into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Types that can reconstruct themselves from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parses `value` into `Self`, reporting the offending path on error.
    fn from_json(value: &Json) -> Result<Self, JsonError>;

    /// Parses `value`, the object member `key`. Scalars, arrays and
    /// options name `key` in their errors; objects name their own
    /// members, so the default ignores `key`.
    fn from_member(value: &Json, key: &str) -> Result<Self, JsonError> {
        let _ = key;
        Self::from_json(value)
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

macro_rules! to_json_ints {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}

to_json_ints!(i8, i16, i32, i64, u8, u16, u32, usize);

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        if let Ok(i) = i64::try_from(*self) {
            Json::Int(i)
        } else {
            Json::Num(*self as f64)
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// An exact [`Json::Int`] when the value fits `i64`, otherwise an
/// approximate [`Json::Num`]: astronomical counts lose precision on the
/// wire but never wrap.
impl ToJson for u128 {
    fn to_json(&self) -> Json {
        match i64::try_from(*self) {
            Ok(exact) => Json::Int(exact),
            Err(_) => Json::Num(*self as f64),
        }
    }
}

/// A shape error naming the member `key`.
fn not_a(key: &str, what: &str) -> JsonError {
    JsonError::shape(format!("`{key}` is not {what}"))
}

macro_rules! from_json_unsigned {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                Self::from_member(value, "value")
            }

            fn from_member(value: &Json, key: &str) -> Result<Self, JsonError> {
                let n = value.as_u64().ok_or_else(|| not_a(key, "an unsigned integer"))?;
                <$t>::try_from(n).map_err(|_| {
                    JsonError::shape(format!(concat!("`{}` out of range for ", stringify!($t)), key))
                })
            }
        }
    )*};
}

from_json_unsigned!(u16, u32, u64, usize);

/// The inverse of `u128`'s [`ToJson`]: an exact unsigned integer, or a
/// non-negative float (saturating) for counts beyond `u64`.
impl FromJson for u128 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Self::from_member(value, "value")
    }

    fn from_member(value: &Json, key: &str) -> Result<Self, JsonError> {
        match value.as_u64() {
            Some(exact) => Ok(u128::from(exact)),
            None => value
                .as_f64()
                .filter(|n| *n >= 0.0)
                .map(|n| n as u128)
                .ok_or_else(|| not_a(key, "a non-negative number")),
        }
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Self::from_member(value, "value")
    }

    fn from_member(value: &Json, key: &str) -> Result<Self, JsonError> {
        value.as_f64().ok_or_else(|| not_a(key, "a number"))
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Self::from_member(value, "value")
    }

    fn from_member(value: &Json, key: &str) -> Result<Self, JsonError> {
        value.as_bool().ok_or_else(|| not_a(key, "a boolean"))
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Self::from_member(value, "value")
    }

    fn from_member(value: &Json, key: &str) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| not_a(key, "a string"))
    }
}

/// Elements parse with [`FromJson::from_json`].
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Self::from_member(value, "value")
    }

    fn from_member(value: &Json, key: &str) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| not_a(key, "an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// `null` reads as `None`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Self::from_member(value, "value")
    }

    fn from_member(value: &Json, key: &str) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            present => T::from_member(present, key).map(Some),
        }
    }
}

/// Declares a wire struct once: the struct itself, its [`ToJson`] (an
/// object with one member per field, in declaration order) and its
/// [`FromJson`].
///
/// Each field is written `name: Type`, optionally followed by
///
/// - `as "key"`: the member's key, when it is not the field name;
/// - `=> codec`: a module in scope with `to_json(&Type) -> Json` and
///   `from_member(&Json, &str) -> Result<Type, JsonError>`, for types
///   without their own impls (foreign enums written as strings);
/// - `= Default`: an absent member reads as `Type::default()`.
///
/// Without `= Default` a member is required. An `Option` field reads
/// `null` as `None`, so `Option<T>` is required but nullable, and
/// `Option<T> = Default` may be absent or `null`.
///
/// ```
/// use warlock_json::{json_struct, parse, FromJson, ToJson};
///
/// json_struct! {
///     /// One disk on the wire.
///     #[derive(Debug, PartialEq)]
///     pub struct Disk {
///         /// Its index.
///         pub id: u16,
///         /// Its capacity, written as `gb`.
///         pub capacity: f64 as "gb",
///         /// Its label; may be `null`.
///         pub label: Option<String>,
///         /// Older documents omit it.
///         pub spares: u32 = Default,
///     }
/// }
///
/// let disk = Disk { id: 3, capacity: 1.5, label: None, spares: 0 };
/// assert_eq!(
///     disk.to_json().render(),
///     r#"{"id":3,"gb":1.5,"label":null,"spares":0}"#
/// );
/// let old = parse(r#"{"id":3,"gb":1.5,"label":null}"#).unwrap();
/// assert_eq!(Disk::from_json(&old).unwrap(), disk);
/// let wide = parse(r#"{"id":65536,"gb":1.5,"label":null}"#).unwrap();
/// assert_eq!(
///     Disk::from_json(&wide).unwrap_err().to_string(),
///     "json: `id` out of range for u16"
/// );
/// ```
#[macro_export]
macro_rules! json_struct {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@write $value:tt) => { $crate::ToJson::to_json($value) };
    (@write $value:tt $codec:ident) => { $codec::to_json($value) };
    (@member $member:expr, $key:expr, $ty:ty, []) => {
        <$ty as $crate::FromJson>::from_member($member, $key)
    };
    (@member $member:expr, $key:expr, $ty:ty, [$codec:ident]) => {
        $codec::from_member($member, $key)
    };
    (@read $object:ident, $key:expr, $ty:ty, $codec:tt, []) => {
        $crate::json_struct!(@member $object.req($key)?, $key, $ty, $codec)?
    };
    (@read $object:ident, $key:expr, $ty:ty, $codec:tt, [$absent:ident]) => {
        match $object.get($key) {
            ::core::option::Option::None => <$ty as $absent>::default(),
            ::core::option::Option::Some(member) => {
                $crate::json_struct!(@member member, $key, $ty, $codec)?
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ty
                    $(as $key:literal)? $(=> $codec:ident)? $(= $absent:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::object([$((
                    $crate::json_struct!(@key $field $($key)?),
                    $crate::json_struct!(@write (&self.$field) $($codec)?),
                ),)*])
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(value: &$crate::Json) -> ::core::result::Result<Self, $crate::JsonError> {
                ::core::result::Result::Ok(Self {$(
                    $field: $crate::json_struct!(
                        @read value,
                        $crate::json_struct!(@key $field $($key)?),
                        $ty,
                        [$($codec)?],
                        [$($absent)?]
                    ),
                )*})
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_conversions() {
        assert_eq!(42u32.to_json(), Json::Int(42));
        assert_eq!(u64::MAX.to_json(), Json::Num(u64::MAX as f64));
        assert_eq!((-3i64).to_json(), Json::Int(-3));
        assert_eq!(true.to_json(), Json::Bool(true));
        assert_eq!("x".to_json(), Json::Str("x".into()));
        assert_eq!(None::<u32>.to_json(), Json::Null);
        assert_eq!(
            vec![1u32, 2].to_json(),
            Json::Arr(vec![Json::Int(1), Json::Int(2)])
        );
    }
}
