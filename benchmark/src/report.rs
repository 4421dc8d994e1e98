//! JSON building blocks and the collected metrics of one run.

use std::collections::BTreeMap;

use serde::Value;

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn uint(v: u64) -> Value {
    Value::UInt(v)
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn list(values: impl IntoIterator<Item = Value>) -> Value {
    Value::Array(values.into_iter().collect())
}

/// Compact single-line JSON.
pub fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("the value tree always renders")
}

/// Pretty-printed JSON.
pub fn render_pretty(value: &Value) -> String {
    serde_json::to_string_pretty(value).expect("the value tree always renders")
}

/// Reads a number out of a parsed JSON value, whatever its integer-ness.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// Metric values by name, as measured.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}
