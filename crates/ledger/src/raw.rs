//! Canonical JSON text carried opaquely inside ledger records.

use serde::{Deserialize, Serialize, Value};

/// A value's canonical compact JSON, held as text.
///
/// Snapshot frames carry state whose types live above this crate (the sim's
/// world and metrics, the serving layer's checkpoint). Holding that state as
/// text rather than as a [`Value`] tree lets a checkpoint stream from its
/// typed form straight into the frame, and lets the record hash and export
/// it verbatim.
///
/// The text is always the canonical JSON of some value. The field is
/// private and there are exactly two ways in: [`RawJson::of`] streams a
/// value through [`Serialize::write_json`], and [`Deserialize`] prints a
/// parsed [`Value`] with [`serde::json::write_value`]. Both emit the bytes
/// `write_value` prints for the value's tree, so a record holding `RawJson`
/// hashes and exports exactly as one holding the tree would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawJson(Box<str>);

impl RawJson {
    /// The canonical JSON of `value`, streamed without building a tree.
    pub fn of<T: Serialize + ?Sized>(value: &T) -> Self {
        let mut text = String::new();
        value.write_json(&mut text);
        RawJson(text.into_boxed_str())
    }

    /// JSON `null`: the payload of a frame field that carries nothing.
    pub fn null() -> Self {
        RawJson("null".into())
    }

    /// Is this JSON `null`?
    pub fn is_null(&self) -> bool {
        &*self.0 == "null"
    }

    /// The JSON text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Parse the text back into a typed value.
    pub fn parse<T: Deserialize>(&self) -> serde_json::Result<T> {
        serde_json::from_str(&self.0)
    }
}

impl Serialize for RawJson {
    fn to_value(&self) -> Value {
        self.parse()
            .expect("RawJson holds the canonical JSON of a value")
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

impl Deserialize for RawJson {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(RawJson::of(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_is_the_canonical_json_of_the_value() {
        let value = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::Float(1.0), Value::Null])),
            ("b".into(), Value::Str("x\ny".into())),
        ]);
        let raw = RawJson::of(&value);
        assert_eq!(raw.as_str(), r#"{"a":[1.0,null],"b":"x\ny"}"#);
        assert_eq!(raw.to_value(), value);
        assert_eq!(RawJson::from_value(&value), Ok(raw));
    }

    #[test]
    fn null_is_the_json_of_nothing() {
        assert!(RawJson::null().is_null());
        assert_eq!(RawJson::null(), RawJson::of(&()));
        assert!(!RawJson::of(&0u8).is_null());
    }

    #[test]
    fn parse_rebuilds_typed_values() {
        let raw = RawJson::of(&vec![(1u64, -2.5f64)]);
        assert_eq!(raw.parse::<Vec<(u64, f64)>>().unwrap(), vec![(1, -2.5)]);
        assert!(raw.parse::<String>().is_err());
    }
}
