//! Pinned outcomes of the v1 decoders: a corpus of request lines and
//! reply lines, each with the exact result `protocol::decode` or
//! `protocol::decode_reply` gives it, kind and message included. The
//! expected results live in `tests/golden/v1_decode.txt` and
//! `tests/golden/v1_decode_reply.txt`, one `{:?}` line per corpus entry,
//! in corpus order. Syntax errors and their positions, shape errors in
//! field order, first-wins duplicate keys, skipped unknown keys, escapes,
//! whitespace, number edges and the nesting limit are all covered, so a
//! decoder rewrite must keep every served error byte for byte.

use hdpm_server::protocol;

fn deep(open: &str, depth: usize, close: &str) -> String {
    format!("{}{}", open.repeat(depth), close.repeat(depth))
}

/// Request lines fed to [`protocol::decode`], in golden-file order.
fn request_corpus() -> Vec<Vec<u8>> {
    let mut lines: Vec<Vec<u8>> = [
        // Syntax errors at several columns.
        r#"{"op":"#,
        r#"{"op":"stats""#,
        r#"{"op" "stats"}"#,
        r#"{op:"stats"}"#,
        r#"{"op":"stats",}"#,
        r#"{"op":"stats"}}"#,
        r#"{"op":"estimate","width":4x}"#,
        r#"{"op":"estimate","width":-}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":tru}"#,
        "not json",
        "[1,2,]",
        r#"{"op":"st\qats"}"#,
        r#"{"op":"\ud800"}"#,
        "{\n\"op\":@}",
        r#""unterminated"#,
        r#"{"op":"stats","extra":[1,}"#,
        "{\"op\":\"\u{e9}\"x}",
        "{\"op\":\u{e9}}",
        // A wrong type in every field, and two at once (field order wins).
        r#"{"op":7}"#,
        r#"{"op":"estimate","module":4,"width":4}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":"4"}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"width2":true}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"data":[1]}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"cycles":{}}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"seed":-1}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"deadline_ms":1.5}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"fidelity_floor":3}"#,
        r#"{"seed":"x","op":5}"#,
        // A missing op, and requests that are not objects.
        "{}",
        r#"{"module":"ripple_adder","width":4}"#,
        r#"{"op":null}"#,
        "[]",
        r#""stats""#,
        "42",
        "null",
        // Duplicate keys: the first one wins.
        r#"{"op":"stats","op":"estimate"}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"width":"bad"}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":null,"width":4}"#,
        // Unknown keys holding nested values.
        r#"{"op":"stats","extra":{"a":[1,{"b":null}],"c":"\u0041"}}"#,
        r#"{"x":[[[[]]]],"op":"characterize","module":"cla_adder","width":8}"#,
        r#"{"op":"stats","n":-1.5e-3,"t":true,"f":false,"s":"\"\\"}"#,
        // Escapes and surrogate pairs.
        r#"{"op":"est\u0069mate","module":"ripple\u005fadder","width":4}"#,
        r#"{"op":"stats\ud83d\ude00"}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"data":"spe\"ech"}"#,
        r#"{"op":"\/stats"}"#,
        r#"{"op":"\u00e9\n\t"}"#,
        // Whitespace and CRLF.
        r#"  {  "op" : "stats" }  "#,
        "{\"op\":\"stats\"}\r",
        "\t{\"op\":\r\n\"stats\"}",
        "   ",
        "",
        "\r\n",
        // Numbers: negative, float, above i64::MAX, leading zeros.
        r#"{"op":"characterize","module":"ripple_adder","width":-0}"#,
        r#"{"op":"characterize","module":"ripple_adder","width":4.0}"#,
        r#"{"op":"characterize","module":"ripple_adder","width":1e2}"#,
        r#"{"op":"characterize","module":"ripple_adder","width":01}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"seed":18446744073709551615}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"seed":18446744073709551616}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"seed":9223372036854775808}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"seed":-9223372036854775809}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"cycles":4294967296}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"cycles":4294967295}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"cycles":99999999999999999999}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"deadline_ms":0}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"cycles":1.}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"cycles":1e}"#,
        // Resolution: well-formed JSON that is not a valid request.
        r#"{"op":"transmogrify"}"#,
        r#"{"op":"estimate","width":4}"#,
        r#"{"op":"estimate","module":"warp_core","width":4}"#,
        r#"{"op":"characterize","module":"ripple_adder"}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"data":"noise"}"#,
        r#"{"op":"estimate","module":"ripple_adder","width":4,"fidelity_floor":"fast"}"#,
        r#"{"op":"estimate","module":"csa_multiplier","width":6,"width2":4,"data":"IV","cycles":1500,"seed":11,"fidelity_floor":"analytic","deadline_ms":250}"#,
        r#"{"op":"stats","deadline_ms":5}"#,
    ]
    .iter()
    .map(|line| line.as_bytes().to_vec())
    .collect();
    // Bytes that are not UTF-8.
    lines.push(vec![0xFF, b'{']);
    lines.push(b"{\"op\":\"st\xC3\x28\"}".to_vec());
    // Nesting: unbalanced, at the limit, past it, inside an unknown key.
    lines.push("[".repeat(200).into_bytes());
    lines.push(deep("[", 128, "]").into_bytes());
    lines.push(deep("[", 129, "]").into_bytes());
    lines.push(format!("{{\"op\":\"stats\",\"x\":{}}}", deep("[", 200, "]")).into_bytes());
    lines.push(
        format!(
            "{{\"op\":\"stats\",\"x\":{}1{}}}",
            "{\"k\":".repeat(127),
            "}".repeat(127)
        )
        .into_bytes(),
    );
    lines
}

/// Reply lines fed to [`protocol::decode_reply`], in golden-file order.
fn reply_corpus() -> Vec<String> {
    let estimate = |extra: &str| {
        format!(
            "{{\"ok\":true,\"op\":\"estimate\",\"module\":\"ripple_adder_4\",\"data\":\"V (counter)\",\"charge_per_cycle\":67.77,\"via_average\":70.92,\"average_hd\":3.2,\"source\":\"memory\",\"fidelity\":\"full\",\"confidence\":1.0{extra}}}"
        )
    };
    let stats = "{\"ok\":true,\"op\":\"stats\",\"entries\":1,\"capacity\":64,\"hits\":2,\"misses\":3,\"evictions\":0,\"disk_hits\":0,\"characterizations\":1,\"coalesced\":0,\"inflight\":0,\"analytic_served\":0,\"regressed_served\":0,\"upgrades_done\":0}";
    let mut lines: Vec<String> = vec![
        estimate(""),
        estimate(",\"trace\":\"t00000000000000ff\""),
        estimate(",\"extra\":{\"nested\":[1,2,{\"x\":null}]}"),
        "{\"ok\":true,\"op\":\"estimate\",\"charge_per_cycle\":67,\"via_average\":-0.0,\"average_hd\":1e400,\"source\":\"mem\\u006fry\",\"fidelity\":\"analytic\",\"confidence\":0.25}".into(),
        "{\"ok\":true,\"op\":\"estimate\",\"charge_per_cycle\":1,\"via_average\":2,\"average_hd\":3,\"source\":\"memory\",\"fidelity\":\"fast\",\"confidence\":1}".into(),
        "{\"ok\":true,\"op\":\"estimate\",\"charge_per_cycle\":1,\"via_average\":2,\"average_hd\":3,\"source\":\"memory\",\"confidence\":1}".into(),
        "{\"ok\":true,\"op\":\"estimate\",\"charge_per_cycle\":1,\"via_average\":2,\"average_hd\":3,\"source\":\"memory\",\"fidelity\":\"full\"}".into(),
        "{\"ok\":true,\"op\":\"estimate\",\"charge_per_cycle\":\"1\",\"via_average\":2,\"average_hd\":3,\"source\":\"memory\",\"fidelity\":\"full\",\"confidence\":1}".into(),
        "{\"ok\":true,\"op\":\"estimate\",\"charge_per_cycle\":1,\"via_average\":2,\"average_hd\":3,\"source\":7,\"fidelity\":\"full\",\"confidence\":1}".into(),
        "{\"ok\":true,\"op\":\"characterize\",\"module\":\"ripple_adder_4\",\"input_bits\":8,\"transitions\":1496,\"converged_after\":null,\"source\":\"fresh\",\"fidelity\":\"full\"}".into(),
        "{\"ok\":true,\"op\":\"characterize\",\"input_bits\":8,\"transitions\":18446744073709551615,\"converged_after\":1200,\"source\":\"disk\"}".into(),
        "{\"ok\":true,\"op\":\"characterize\",\"input_bits\":8,\"transitions\":1,\"source\":\"disk\"}".into(),
        "{\"ok\":true,\"op\":\"characterize\",\"input_bits\":8,\"transitions\":1,\"converged_after\":-1,\"source\":\"disk\"}".into(),
        "{\"ok\":true,\"op\":\"characterize\",\"input_bits\":8,\"transitions\":1,\"converged_after\":1.5,\"source\":\"disk\"}".into(),
        "{\"ok\":true,\"op\":\"characterize\",\"input_bits\":4294967296,\"transitions\":1,\"source\":\"disk\"}".into(),
        "{\"ok\":true,\"op\":\"characterize\",\"input_bits\":8,\"transitions\":-1,\"source\":\"disk\"}".into(),
        stats.into(),
        stats.replace("\"misses\":3", "\"misses\":-3"),
        stats.replace(",\"upgrades_done\":0", ""),
        "{\"ok\":true,\"op\":\"ping\"}".into(),
        "{\"ok\":false,\"error\":{\"kind\":\"timeout\",\"message\":\"deadline exceeded\"}}".into(),
        "{\"ok\":false,\"error\":{\"kind\":\"engine\"},\"trace\":\"t0000000000000001\"}".into(),
        "{\"ok\":false,\"error\":\"boom\"}".into(),
        "{\"ok\":false,\"error\":{\"kind\":5,\"message\":\"a \\\"quoted\\\"\\nline \\u00e9\\ud83d\\ude00\"}}".into(),
        "{\"ok\":false}".into(),
        "{\"ok\":false,\"ok\":true,\"op\":\"ping\"}".into(),
        "{\"ok\":true,\"ok\":false,\"op\":\"ping\"}".into(),
        "{\"ok\":\"yes\",\"op\":\"ping\"}".into(),
        "{\"op\":\"ping\"}".into(),
        "[]".into(),
        "\"ok\"".into(),
        "{\"ok\":true}".into(),
        "{\"ok\":true,\"op\":\"frob\"}".into(),
        "{\"ok\":true,\"op\":5}".into(),
        "{\"ok\":true,\"op\":\"ping\",\"op\":\"stats\"}".into(),
        "  {\"ok\" : true , \"op\" : \"ping\"}  ".into(),
        "{\"ok\":true,\"op\":\"ping\"}x".into(),
        "{\"ok\":true,\"op\":\"ping\"".into(),
        "{\"ok\":tru,\"op\":\"ping\"}".into(),
        "".into(),
        "{\"ok\":true,\"op\":\"ping\",\"x\":\"\\q\"}".into(),
    ];
    lines.push("[".repeat(200));
    lines.push(deep("[", 129, "]"));
    lines.push(format!(
        "{{\"ok\":true,\"op\":\"ping\",\"x\":{}}}",
        deep("[", 128, "]")
    ));
    lines.push(format!(
        "{{\"ok\":true,\"op\":\"ping\",\"x\":{}}}",
        deep("[", 127, "]")
    ));
    lines
}

fn golden(name: &str) -> Vec<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(String::from)
        .collect()
}

fn check(name: &str, inputs: &[String], actual: &[String]) {
    let expected = golden(name);
    assert_eq!(
        expected.len(),
        actual.len(),
        "{name}: corpus and golden file differ in length"
    );
    let mismatches: Vec<String> = inputs
        .iter()
        .zip(actual.iter().zip(&expected))
        .enumerate()
        .filter(|(_, (_, (got, want)))| got != want)
        .map(|(i, (input, (got, want)))| {
            format!("entry {i} {input}\n  got:  {got}\n  want: {want}")
        })
        .collect();
    assert!(mismatches.is_empty(), "{name}:\n{}", mismatches.join("\n"));
}

fn shown(input: &[u8]) -> String {
    let text = String::from_utf8_lossy(input);
    if text.chars().count() > 80 {
        let head: String = text.chars().take(80).collect();
        format!("{head:?}… ({} bytes)", input.len())
    } else {
        format!("{text:?}")
    }
}

#[test]
fn request_lines_decode_to_their_pinned_outcomes() {
    let corpus = request_corpus();
    assert!(corpus.len() >= 40);
    let inputs: Vec<String> = corpus.iter().map(|line| shown(line)).collect();
    let actual: Vec<String> = corpus
        .iter()
        .map(|line| format!("{:?}", protocol::decode(line)))
        .collect();
    check("v1_decode.txt", &inputs, &actual);
}

#[test]
fn reply_lines_decode_to_their_pinned_outcomes() {
    let corpus = reply_corpus();
    assert!(corpus.len() >= 40);
    let inputs: Vec<String> = corpus.iter().map(|line| shown(line.as_bytes())).collect();
    let actual: Vec<String> = corpus
        .iter()
        .map(|line| format!("{:?}", protocol::decode_reply(line)))
        .collect();
    check("v1_decode_reply.txt", &inputs, &actual);
}
