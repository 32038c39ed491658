//! Property-based tests: arbitrary JSON values survive serialize → parse.

use proptest::prelude::*;
use tw_json::{parse, parse_with_options, to_string, to_string_pretty, Map, ParseOptions, Value};

/// Strategy producing arbitrary JSON values of bounded depth/size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::from),
        (-1.0e6f64..1.0e6).prop_map(|f| Value::from((f * 100.0).round() / 100.0)),
        "[a-zA-Z0-9 _\\-\"\\\\/\n\t€é😀]{0,12}".prop_map(Value::from),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..8).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{1,8}", inner), 0..8).prop_map(|pairs| {
                let mut map = Map::new();
                for (k, v) in pairs {
                    map.insert(k, v);
                }
                Value::Object(map)
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_round_trip(v in arb_value()) {
        let text = to_string(&v);
        let parsed = parse(&text).expect("serialized output must parse");
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn pretty_round_trip(v in arb_value()) {
        let text = to_string_pretty(&v);
        let parsed = parse(&text).expect("pretty output must parse");
        prop_assert_eq!(parsed, v);
    }

    #[test]
    fn serialized_output_is_strict(v in arb_value()) {
        // Output never relies on the relaxed extensions (comments/trailing commas).
        let text = to_string(&v);
        let strict_options = ParseOptions {
            allow_trailing_commas: false,
            allow_comments: false,
            ..ParseOptions::default()
        };
        let strict = parse_with_options(&text, &strict_options).expect("strict parse");
        prop_assert_eq!(strict, v);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,64}") {
        let _ = parse(&s);
    }

    #[test]
    fn node_count_is_positive_and_depth_bounded(v in arb_value()) {
        prop_assert!(v.node_count() >= 1);
        prop_assert!(v.depth() >= 1);
        prop_assert!(v.depth() <= 6);
    }
}
