//! Property tests for the JSON pull reader (DESIGN.md §5): whatever the
//! writer renders — compact or pretty — reads back equal; `skip` passes
//! over exactly the bytes `value` consumes; and damaged input of any kind
//! is a `JsonError`, never a panic or a stack overflow.

use dphpo_dnnp::json::{Json, Reader, MAX_DEPTH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Text with everything the string codec treats specially: quotes,
/// backslashes, control characters (`\u00XX` escapes), multi-byte and
/// non-BMP characters.
fn wild_string(rng: &mut StdRng) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0008}', '\u{000c}', '\u{0001}',
        'å', '∑', '😀',
    ];
    let len = rng.random_range(0..9usize);
    (0..len).map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())]).collect()
}

/// An arbitrary tree: scalars of every kind, empty and nested containers.
fn wild_json(rng: &mut StdRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.random_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_range(0..2usize) == 1),
        2 => Json::Number(rng.random_range(-1e6..1e6)),
        3 => {
            Json::Number(rng.random_range(-1.0..1.0) * 10f64.powf(rng.random_range(-300.0..300.0)))
        }
        4 => Json::String(wild_string(rng)),
        5 => {
            let len = rng.random_range(0..4usize);
            Json::Array((0..len).map(|_| wild_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.random_range(0..4usize);
            Json::Object((0..len).map(|_| (wild_string(rng), wild_json(rng, depth - 1))).collect())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn both_renderings_read_back_equal_and_skip_matches_value(seed in i64::MIN..i64::MAX) {
        let tree = wild_json(&mut StdRng::seed_from_u64(seed as u64), 4);
        for text in [tree.to_compact(), tree.to_string()] {
            prop_assert_eq!(&Json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}")), &tree);
            // Surround the value so that "consumed exactly" is visible.
            let framed = format!(" [{text} ,7]");
            let mut by_value = Reader::new(&framed);
            let mut by_skip = Reader::new(&framed);
            for r in [&mut by_value, &mut by_skip] {
                r.begin_array().unwrap();
                prop_assert!(r.next_element().unwrap());
            }
            prop_assert_eq!(&by_value.value().unwrap(), &tree);
            by_skip.skip().unwrap();
            prop_assert_eq!(by_skip.pos(), by_value.pos());
            for r in [&mut by_value, &mut by_skip] {
                prop_assert!(r.next_element().unwrap());
                prop_assert_eq!(r.f64().unwrap(), 7.0);
                prop_assert!(!r.next_element().unwrap());
                r.end().unwrap();
            }
        }
    }

    #[test]
    fn every_proper_prefix_and_every_byte_flip_is_an_error_or_a_value(seed in i64::MIN..i64::MAX) {
        let tree = wild_json(&mut StdRng::seed_from_u64(seed as u64), 3);
        // A container at the top, so that no proper prefix is a document.
        let text = Json::Array(vec![tree]).to_compact();
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            prop_assert!(Json::parse(&text[..cut]).is_err(), "prefix {cut} of {text}");
            let mut r = Reader::new(&text[..cut]);
            prop_assert!(r.skip().and_then(|()| r.end()).is_err(), "prefix {cut} of {text}");
        }
        // Flipped bytes may still be JSON; they must agree between the two
        // consumers and must not panic.
        let mut bytes = text.clone().into_bytes();
        for at in 0..bytes.len() {
            bytes[at] ^= 0x04;
            if let Ok(damaged) = std::str::from_utf8(&bytes) {
                let mut r = Reader::new(damaged);
                let skipped = r.skip().and_then(|()| r.end());
                prop_assert_eq!(Json::parse(damaged).is_ok(), skipped.is_ok(), "{}", damaged);
            }
            bytes[at] ^= 0x04;
        }
    }
}

#[test]
fn nesting_is_bounded_not_a_stack_overflow() {
    for opener in ["[", "{\"a\":"] {
        let bomb = opener.repeat(200_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH * opener.len(), "{err}");
        assert!(err.message.contains("nesting"), "{err}");
        let mut r = Reader::new(&bomb);
        assert_eq!(r.skip().unwrap_err().pos, MAX_DEPTH * opener.len());
    }
    // The bound itself is reachable, and closing brackets give depth back.
    let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&deepest).is_ok());
    assert!(Json::parse(&format!("[{deepest},{deepest}]")).is_err());
    let wide = format!("[{}]", vec!["[[[]]]"; 10_000].join(","));
    assert!(Json::parse(&wide).is_ok());
}

#[test]
fn numbers_that_overflow_f64_are_rejected_not_infinite() {
    for text in ["1e999", "-1e999", "[1e309]", "{\"objectives\":[1e999,0.5]}"] {
        let err = Json::parse(text).unwrap_err();
        assert!(err.message.contains("out of range"), "{text}: {err}");
    }
    // The largest finite double and a subnormal are numbers like any other.
    assert_eq!(Json::parse("1.7976931348623157e308").unwrap(), Json::Number(f64::MAX));
    assert_eq!(Json::parse("5e-324").unwrap(), Json::Number(5e-324));
    assert_eq!(Json::parse("1e-999").unwrap(), Json::Number(0.0));
    // Long-standing leniencies are left alone.
    assert_eq!(Json::parse("01").unwrap(), Json::Number(1.0));
    assert_eq!(Json::parse("1.").unwrap(), Json::Number(1.0));
    for text in ["-", "1e", "1e+", "1.2.3", "1e5e5", "--1", "1-1", "+1", ".5", "-inf", "NaN"] {
        assert!(Json::parse(text).is_err(), "{text}");
    }
}

#[test]
fn strings_borrow_unless_an_escape_forces_a_copy() {
    use std::borrow::Cow;
    let text = r#"["plain å 😀","esc\"apedA\n"]"#;
    let mut r = Reader::new(text);
    r.begin_array().unwrap();
    assert!(r.next_element().unwrap());
    assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain å 😀")));
    assert!(r.next_element().unwrap());
    let escaped = r.str().unwrap();
    assert!(matches!(escaped, Cow::Owned(_)));
    assert_eq!(escaped, "esc\"apedA\n");
    assert!(!r.next_element().unwrap());
    r.end().unwrap();
}

#[test]
fn typed_reads_fail_on_the_wrong_kind_without_consuming_it() {
    let mut r = Reader::new(r#"{"a":"text","b":null,"c":[]}"#);
    r.begin_object().unwrap();
    assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
    let at = r.pos();
    assert!(r.f64().is_err() && r.begin_array().is_err() && r.begin_object().is_err());
    assert_eq!(r.pos(), at);
    assert!(!r.null().unwrap());
    assert_eq!(r.str().unwrap(), "text");
    assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
    assert!(r.str().is_err());
    assert!(r.null().unwrap());
    assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
    assert_eq!(r.peek(), Some(b'['));
    r.skip().unwrap();
    assert_eq!(r.next_key().unwrap(), None);
    r.end().unwrap();
}
