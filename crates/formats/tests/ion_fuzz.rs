//! Decoder robustness fuzzing for the ion-lite binary format.
//!
//! Adversary families, all seeded and deterministic:
//!
//! 1. **byte soup** — random byte strings fed straight into the decoder;
//! 2. **bit-flipped valid encodings** — encode a generated value, flip
//!    one bit (or splice random bytes), decode;
//! 3. **name flood** — more distinct attribute names than the intern
//!    table holds, some past its length cap;
//! 4. **wire frames** — byte soup and bit flips through the session
//!    protocol's request and response decoders.
//!
//! The contract under test: `from_ion_lite` returns `Ok` only for
//! byte-exact canonical encodings, and every rejection is a structured
//! `FormatError` — never a panic, never an abort. Accepted mutations
//! must decode to a value that re-encodes canonically (no two distinct
//! byte strings decode to the same value and both round-trip).

use sqlpp_formats::ion_lite::{from_ion_lite, from_ion_lite_prefix, to_ion_lite};
use sqlpp_formats::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    WireDiagnostic,
};
use sqlpp_testkit::prop::values::any_value;
use sqlpp_testkit::prop::Source;
use sqlpp_testkit::Rng;
use sqlpp_value::attr::{interned_count, MAX_INTERNED, MAX_INTERNED_LEN};
use sqlpp_value::{AttrName, Tuple, Value};

/// Decode inside `catch_unwind`: a panic is the one outcome the fuzz
/// families exist to rule out.
fn decode_no_panic(bytes: &[u8]) -> Option<Value> {
    let owned = bytes.to_vec();
    let result = std::panic::catch_unwind(move || from_ion_lite(&owned).ok());
    match result {
        Ok(v) => v,
        Err(_) => panic!("decoder panicked on {} bytes: {:?}", bytes.len(), bytes),
    }
}

#[test]
fn random_byte_soup_never_panics() {
    let mut rng = Rng::new(0xB18_F00D);
    for case in 0..4096 {
        let len = (rng.next_u64() % 64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Accidental hits must decode to stable, re-encodable values.
        if let Some(v) = decode_no_panic(&bytes) {
            let back = from_ion_lite(&to_ion_lite(&v))
                .unwrap_or_else(|e| panic!("case {case}: accepted value won't round-trip: {e}"));
            assert!(sqlpp_value::cmp::deep_eq(&back, &v), "case {case}");
        }
    }
}

#[test]
fn bit_flipped_valid_encodings_error_not_panic() {
    let gen = any_value();
    let mut rng = Rng::new(0x1077_F11D);
    for case in 0..512 {
        let mut src = Source::random(rng.next_u64());
        let value = gen.generate(&mut src);
        let bytes = to_ion_lite(&value);
        if bytes.is_empty() {
            continue;
        }
        // One single-bit flip per case, position seeded.
        let mut flipped = bytes.clone();
        let pos = (rng.next_u64() % bytes.len() as u64) as usize;
        let bit = 1u8 << (rng.next_u64() % 8);
        flipped[pos] ^= bit;
        // A flip may still decode (e.g. inside a string or mantissa, or
        // producing a non-canonical scale that normalizes on re-encode);
        // what matters is that whatever is accepted is itself a
        // well-formed value that round-trips.
        if let Some(v) = decode_no_panic(&flipped) {
            let reencoded = to_ion_lite(&v);
            let back = from_ion_lite(&reencoded)
                .unwrap_or_else(|e| panic!("case {case}: accepted value won't round-trip: {e}"));
            assert!(
                sqlpp_value::cmp::deep_eq(&back, &v),
                "case {case}: flip at {pos} decoded to an unstable value"
            );
        }
    }
}

#[test]
fn truncations_and_extensions_error_not_panic() {
    let gen = any_value();
    let mut rng = Rng::new(0x7A11_CAFE);
    for _ in 0..128 {
        let mut src = Source::random(rng.next_u64());
        let bytes = to_ion_lite(&gen.generate(&mut src));
        // Every proper prefix must be rejected (truncation) without
        // panicking; the whole buffer must decode.
        for cut in 0..bytes.len() {
            assert!(
                decode_no_panic(&bytes[..cut]).is_none(),
                "cut {cut} accepted"
            );
        }
        assert!(decode_no_panic(&bytes).is_some());
        // Trailing garbage is rejected by from_ion_lite but accepted by
        // the prefix decoder, which reports the true boundary.
        let mut extended = bytes.clone();
        extended.push(rng.next_u64() as u8);
        assert!(from_ion_lite(&extended).is_err(), "trailing byte accepted");
        let (v, used) = from_ion_lite_prefix(&extended).expect("prefix decode");
        assert_eq!(used, bytes.len());
        assert_eq!(to_ion_lite(&v), bytes);
    }
}

#[test]
fn oversized_varint_chunks_are_rejected_consistently() {
    // A 19-byte varint whose final chunk carries bits beyond bit 127.
    // Before the overflow fix these bits were silently dropped, so two
    // distinct byte strings decoded to the same length header.
    // 18 continuation bytes of 0x80 put the final chunk at shift 126;
    // any final byte > 0x03 overflows u128.
    let mut bytes = vec![3u8]; // TAG_INT
    bytes.extend([0x80; 18]);
    bytes.push(0x04); // bit 128 — out of range
    assert!(
        from_ion_lite(&bytes).is_err(),
        "overflowing varint accepted"
    );

    // The maximal in-range final chunk still decodes (or fails for a
    // structured reason other than a panic).
    let mut max = vec![3u8];
    max.extend([0xFF; 18]);
    max.push(0x03);
    let _ = decode_no_panic(&max);
}

#[test]
fn name_flood_stops_the_intern_table_at_its_cap() {
    // Rows of 64 fresh names each, enough for twice the table's cap, and
    // every eighth name past the length cap. Each row is its own decode
    // call, as separate responses would be.
    let mut rng = Rng::new(0xF100_D5EE);
    let width = 64;
    for row in 0..2 * MAX_INTERNED / width {
        let mut t = Tuple::with_capacity(width);
        for col in 0..width {
            let mut name = format!("flood_{row}_{col}_{:x}", rng.next_u64());
            if col % 8 == 0 {
                name.push_str(&"#".repeat(MAX_INTERNED_LEN));
            }
            t.insert(name, Value::Int((row * width + col) as i64));
        }
        let bytes = to_ion_lite(&Value::Tuple(t.clone()));
        let back = match decode_no_panic(&bytes) {
            Some(Value::Tuple(back)) => back,
            other => panic!("row {row}: decoded to {other:?}"),
        };
        assert!(
            interned_count() <= MAX_INTERNED,
            "row {row}: table over its cap"
        );
        assert_eq!(back.len(), width, "row {row}");
        for (name, value) in t.iter() {
            assert_eq!(
                back.get(name),
                Some(value),
                "row {row}: {name} does not read back"
            );
        }
        for (name, _) in back.pairs() {
            if name.len() > MAX_INTERNED_LEN {
                assert!(
                    !name.is_shared(),
                    "row {row}: over-long {name} was interned"
                );
            }
        }
    }
    assert_eq!(interned_count(), MAX_INTERNED, "the flood fills the table");
    let late = AttrName::new("a_name_first_seen_after_the_flood");
    assert!(!late.is_shared(), "a full table hands out owned names");
    assert_eq!(late, *"a_name_first_seen_after_the_flood");
}

/// Decodes a wire payload both ways inside `catch_unwind`; an accepted
/// payload must re-encode to a payload that decodes to the same message.
fn wire_decode_no_panic(bytes: &[u8]) {
    let owned = bytes.to_vec();
    let result = std::panic::catch_unwind(move || {
        if let Ok(req) = decode_request(&owned) {
            let back = decode_request(&encode_request(&req)).expect("re-encoded request");
            assert_eq!(back.query, req.query);
            assert_eq!(back.params.len(), req.params.len());
            for (a, b) in back.params.iter().zip(&req.params) {
                assert!(sqlpp_value::cmp::deep_eq(a, b), "request param unstable");
            }
        }
        if let Ok(resp) = decode_response(&owned) {
            let back = decode_response(&encode_response(&resp)).expect("re-encoded response");
            match (&back, &resp) {
                (Response::Rows(a), Response::Rows(b)) => {
                    assert!(sqlpp_value::cmp::deep_eq(a, b), "response rows unstable")
                }
                _ => assert_eq!(back, resp),
            }
        }
    });
    if result.is_err() {
        panic!(
            "wire decoder panicked on {} bytes: {:?}",
            bytes.len(),
            bytes
        );
    }
}

#[test]
fn wire_byte_soup_never_panics() {
    let mut rng = Rng::new(0x0817_E50B);
    for _ in 0..4096 {
        let len = (rng.next_u64() % 64) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Half the cases start with a real tag, so decoding gets past it.
        if let Some(first) = bytes.first_mut() {
            *first = [0x01, 0x81, 0x82, 0x83, *first][(rng.next_u64() % 5) as usize];
        }
        wire_decode_no_panic(&bytes);
    }
}

#[test]
fn wire_bit_flips_error_not_panic() {
    let gen = any_value();
    let mut rng = Rng::new(0xF1_1950_0DD5);
    for case in 0..512 {
        let mut src = Source::random(rng.next_u64());
        let value = gen.generate(&mut src);
        let payload = match case % 4 {
            0 => encode_request(&Request {
                query: format!("SELECT VALUE x FROM ? AS x -- {case}"),
                params: vec![value, Value::Int(case)],
            }),
            1 => encode_response(&Response::Rows(value)),
            2 => encode_response(&Response::Error {
                code: "plan".to_string(),
                message: format!("case {case}: {value}"),
                diagnostics: vec![WireDiagnostic {
                    code: "E_PLAN".to_string(),
                    message: "unknown name".to_string(),
                    start: case as usize,
                    end: case as usize + 3,
                }],
            }),
            _ => encode_response(&Response::Overloaded {
                message: format!("admission queue full ({case})"),
            }),
        };
        wire_decode_no_panic(&payload);
        let mut flipped = payload.clone();
        let pos = (rng.next_u64() % payload.len() as u64) as usize;
        flipped[pos] ^= 1u8 << (rng.next_u64() % 8);
        wire_decode_no_panic(&flipped);
        // Truncation at a seeded point, too.
        let cut = (rng.next_u64() % payload.len() as u64) as usize;
        wire_decode_no_panic(&payload[..cut]);
    }
}
