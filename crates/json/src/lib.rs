//! # tw-json
//!
//! A small, dependency-free JSON library used throughout the Traffic Warehouse
//! reproduction. The paper's core design choice is that learning modules are
//! "easily editable JSON files that a non-game developer could use to create
//! new learning modules", so the JSON pipeline is a first-class substrate of
//! this repository rather than an external dependency.
//!
//! The implementation accepts standard RFC 8259 JSON plus two ergonomic
//! extensions that the paper's own listings rely on:
//!
//! * trailing commas in arrays and objects (the paper's `axis_labels` and
//!   `traffic_matrix` listings all end with a trailing comma), and
//! * `//` line comments, so educators can annotate module files.
//!
//! The serializer always emits strict RFC 8259 output.
//!
//! ```
//! use tw_json::{parse, Value};
//!
//! let v = parse(r#"{"name": "10x10 Template", "size": "10x10", "answers": ["0", "1", "2",],}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Value::as_str), Some("10x10 Template"));
//! assert_eq!(v.get("answers").unwrap().as_array().unwrap().len(), 3);
//! ```

pub mod error;
pub mod number;
pub mod parse;
pub mod ser;
pub mod value;

pub use error::{JsonError, Result};
pub use number::Number;
pub use parse::{parse, parse_with_options, ParseOptions};
pub use ser::{to_string, to_string_pretty, WriteOptions};
pub use value::{Map, Value};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_paper_template_header() {
        // The literal header fields from the paper's Section II listing.
        let src = r#"{
            "name":"10x10 Template",
            "size":"10x10",
            "author":"Chasen Milner",
            "axis_labels":[
                "WS1","WS2","WS3","SRV1",
                "EXT1","EXT2",
                "ADV1","ADV2","ADV3","ADV4",
            ],
        }"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("size").and_then(Value::as_str), Some("10x10"));
        let labels = v.get("axis_labels").unwrap().as_array().unwrap();
        assert_eq!(labels.len(), 10);
        assert_eq!(labels[6].as_str(), Some("ADV1"));
        // Output must be strict JSON and parse again to the same value.
        let out = to_string(&v);
        assert_eq!(parse(&out).unwrap(), v);
    }
}
