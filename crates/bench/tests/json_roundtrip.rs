//! Property suite for the bench JSON codec (ISSUE 7 satellite): the
//! hand-rolled writer must be an exact inverse of the hand-rolled parser
//! for arbitrary finite documents — nesting, hostile strings (quotes,
//! backslashes, control characters, multi-byte UTF-8), and integers up
//! to the 2^53 exact-f64 boundary. Case counts honour `PROPTEST_CASES`
//! like every property suite in the workspace.

use chronorank_bench::json::{encode, parse, Json};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Characters chosen to stress every escaping path plus plain ASCII and
/// multi-byte UTF-8.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '_', '.', '/', '"', '\\', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{1}',
    '\u{1f}', 'é', '雪', '🛰',
];

fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.usize_in(0, 12);
    (0..len).map(|_| PALETTE[rng.usize_in(0, PALETTE.len() - 1)]).collect()
}

fn gen_number(rng: &mut TestRng) -> f64 {
    match rng.usize_in(0, 3) {
        // Integers across the full exactly-representable span.
        0 => rng.sample(-(1i64 << 53)..=(1i64 << 53)) as f64,
        // Small decimals like the bench rates and hit-ratios.
        1 => rng.unit_f64(),
        // Large magnitudes (prints without an exponent, still finite).
        2 => (rng.unit_f64() - 0.5) * 1e18,
        // Tiny magnitudes.
        _ => (rng.unit_f64() - 0.5) * 1e-9,
    }
}

fn gen_json(rng: &mut TestRng, depth: usize) -> Json {
    // Past the depth budget only leaves remain, so documents terminate.
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.usize_in(0, kinds - 1) {
        0 => Json::Null,
        1 => Json::Bool(rng.usize_in(0, 1) == 1),
        2 => Json::Num(gen_number(rng)),
        3 => Json::Str(gen_string(rng)),
        4 => {
            let n = rng.usize_in(0, 4);
            Json::Arr((0..n).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.usize_in(0, 4);
            Json::Obj((0..n).map(|_| (gen_string(rng), gen_json(rng, depth - 1))).collect())
        }
    }
}

/// Arbitrary finite JSON documents, up to four levels of nesting.
struct ArbJson;

impl Strategy for ArbJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        gen_json(rng, 4)
    }
}

proptest! {
    /// encode ∘ parse = id: whatever document the generator dreams up,
    /// parsing its encoding reproduces it exactly (f64 equality is exact
    /// because Rust prints shortest round-trip decimals).
    #[test]
    fn encode_then_parse_is_identity(doc in ArbJson) {
        let text = encode(&doc);
        let back = parse(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(&back, &doc, "text was {}", text);
        // And encoding is deterministic: one more round is a fixed point.
        prop_assert_eq!(encode(&back), text);
    }

    /// Hostile strings alone: every palette combination survives as an
    /// object key AND as a value (keys exercise the same writer).
    #[test]
    fn strings_roundtrip_as_keys_and_values(doc in ArbJson) {
        let (key, val) = match &doc {
            Json::Str(s) => (s.clone(), s.clone()),
            other => (encode(other), String::new()),
        };
        let wrapped = Json::Obj(vec![(key, Json::Str(val))]);
        prop_assert_eq!(parse(&encode(&wrapped)).unwrap(), wrapped);
    }
}
