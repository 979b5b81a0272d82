//! The two codecs around the one request core: every typed request
//! survives both encodings unchanged, one response reads back the same
//! through either protocol, no byte string makes a decoder panic, and
//! the cluster ops keep the byte layouts of docs/protocol.md.

use hdpm_core::Fidelity;
use hdpm_netlist::{ModuleKind, ModuleSpec, ModuleWidth};
use hdpm_server::client::{CharacterizeAnswer, EstimateAnswer, Request, Response, StatsAnswer};
use hdpm_server::protocol::{self, Decoded};
use hdpm_server::wire;
use hdpm_streams::ALL_DATA_TYPES;
use proptest::prelude::*;

/// Raw material for one generated value: a fixed number of random words,
/// consumed in order.
fn words() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 64)
}

struct Words(std::vec::IntoIter<u64>);

impl Words {
    fn next(&mut self) -> u64 {
        self.0.next().expect("enough words")
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn spec(&mut self) -> ModuleSpec {
        let kind = ModuleKind::ALL[self.below(ModuleKind::ALL.len() as u64) as usize];
        let m1 = 1 + self.below(64) as usize;
        let width = if self.below(2) == 0 {
            ModuleWidth::Uniform(m1)
        } else {
            ModuleWidth::Rect(m1, 1 + self.below(64) as usize)
        };
        ModuleSpec::new(kind, width)
    }

    fn floor(&mut self) -> Option<Fidelity> {
        [
            None,
            Some(Fidelity::Analytic),
            Some(Fidelity::Regressed),
            Some(Fidelity::Full),
        ][self.below(4) as usize]
    }

    /// A finite float of any magnitude (JSON carries no NaN or ∞).
    fn float(&mut self) -> f64 {
        let f = f64::from_bits(self.next());
        if f.is_finite() {
            f
        } else {
            0.5
        }
    }

    /// A count as the server produces them (JSON integers are i64).
    fn count(&mut self) -> u64 {
        self.next() >> 1
    }

    fn source(&mut self) -> String {
        [
            "memory",
            "disk",
            "fresh",
            "coalesced",
            "analytic",
            "regressed",
        ][self.below(6) as usize]
            .to_string()
    }

    /// Up to 7 specs (a warm-keys list).
    fn specs(&mut self) -> Vec<ModuleSpec> {
        let n = self.below(8);
        (0..n).map(|_| self.spec()).collect()
    }

    /// A non-empty byte string, or `None` (a fetch-model answer).
    fn artifact(&mut self) -> Option<Vec<u8>> {
        let n = self.below(4);
        let bytes: Vec<u8> = (0..n).flat_map(|_| self.next().to_le_bytes()).collect();
        (!bytes.is_empty()).then_some(bytes)
    }

    fn message(&mut self) -> String {
        let alphabet = [
            'a', 'Z', ' ', '"', '\\', '\n', '\t', 'é', '😀', '{', '}', '\u{1}',
        ];
        (0..self.below(24))
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

fn request_from(raw: Vec<u64>) -> (Request, Option<u32>) {
    let mut w = Words(raw.into_iter());
    let request = match w.below(7) {
        0 => Request::Estimate {
            spec: w.spec(),
            data: ALL_DATA_TYPES[w.below(ALL_DATA_TYPES.len() as u64) as usize],
            cycles: w.next() as u32,
            seed: w.next(),
            floor: w.floor(),
        },
        1 => Request::Characterize { spec: w.spec() },
        2 => Request::Stats,
        3 => Request::Ping,
        4 => Request::FetchModel { spec: w.spec() },
        5 => Request::HaveModel { spec: w.spec() },
        _ => Request::WarmKeys { specs: w.specs() },
    };
    // v2 spells "no deadline" as 0, so generated deadlines start at 1.
    let deadline = (w.below(2) == 0).then(|| 1 + w.below(u64::from(u32::MAX)) as u32);
    (request, deadline)
}

/// A response together with a request it can answer (v1 estimate and
/// characterize replies echo the request's module and data).
fn response_from(raw: Vec<u64>) -> (Request, Response) {
    let mut w = Words(raw.into_iter());
    let spec = w.spec();
    let estimate = Request::Estimate {
        spec,
        data: ALL_DATA_TYPES[0],
        cycles: 512,
        seed: 7,
        floor: None,
    };
    match w.below(8) {
        0 => (
            estimate,
            Response::Estimate(EstimateAnswer {
                charge_per_cycle: w.float(),
                via_average: w.float(),
                average_hd: w.float(),
                source: w.source(),
                fidelity: w.floor().unwrap_or(Fidelity::Full),
                confidence: w.float(),
            }),
        ),
        1 => (
            Request::Characterize { spec },
            Response::Characterize(CharacterizeAnswer {
                input_bits: w.next() as u32,
                transitions: w.count(),
                converged_after: (w.below(2) == 0).then(|| w.count()),
                source: w.source(),
            }),
        ),
        2 => {
            let answer = StatsAnswer {
                entries: w.count(),
                capacity: w.count(),
                hits: w.count(),
                misses: w.count(),
                evictions: w.count(),
                disk_hits: w.count(),
                characterizations: w.count(),
                coalesced: w.count(),
                inflight: w.count(),
                analytic_served: w.count(),
                regressed_served: w.count(),
                upgrades_done: w.count(),
            };
            (Request::Stats, Response::Stats(answer))
        }
        3 => (Request::Ping, Response::Pong),
        4 => (
            Request::FetchModel { spec },
            Response::Artifact(w.artifact()),
        ),
        5 => (
            Request::HaveModel { spec },
            Response::HaveModel(w.below(2) == 0),
        ),
        6 => (
            Request::WarmKeys { specs: vec![] },
            Response::WarmKeys(w.specs()),
        ),
        _ => {
            let kinds = [
                "malformed",
                "invalid_utf8",
                "bad_request",
                "engine",
                "overloaded",
                "timeout",
            ];
            let kind = kinds[w.below(kinds.len() as u64) as usize].to_string();
            (
                estimate,
                Response::Error {
                    kind,
                    message: w.message(),
                },
            )
        }
    }
}

fn opcode_of(request: &Request) -> wire::Opcode {
    match request {
        Request::Estimate { .. } => wire::Opcode::Estimate,
        Request::Characterize { .. } => wire::Opcode::Characterize,
        Request::Stats => wire::Opcode::Stats,
        Request::Ping => wire::Opcode::Ping,
        Request::FetchModel { .. } => wire::Opcode::FetchModel,
        Request::HaveModel { .. } => wire::Opcode::HaveModel,
        Request::WarmKeys { .. } => wire::Opcode::WarmKeys,
    }
}

/// Answers only v2 can carry: the cluster ops have no v1 spelling.
fn v2_only(response: &Response) -> bool {
    matches!(
        response,
        Response::Artifact(_) | Response::HaveModel(_) | Response::WarmKeys(_)
    )
}

fn v1_reply(request: &Request, response: &Response) -> Response {
    let line = protocol::render(&protocol::reply_value(Some(request), response));
    assert!(!line.contains('\n'), "one reply per line: {line}");
    protocol::decode_reply(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn v2_reply(request: &Request, response: &Response, late: bool) -> (Vec<u8>, Response) {
    let mut frame = Vec::new();
    wire::encode_reply(&mut frame, 77, late, response);
    let header = wire::decode_header(frame[..wire::HEADER_LEN].try_into().unwrap());
    assert_eq!(header.id, 77);
    assert_eq!(header.len as usize, frame.len() - wire::HEADER_LEN);
    assert_eq!(header.extra & wire::FLAG_LATE != 0, late);
    let decoded = wire::decode_reply(opcode_of(request), header.op, &frame[wire::HEADER_LEN..])
        .expect("v2 reply decodes");
    (frame, decoded)
}

/// Give a response what the v1 encoder must get exactly right: source
/// strings that need escapes, and floats at the extremes (subnormals,
/// ±huge, −0.0, the non-finite values both paths write as `null`).
fn sharpen(response: &mut Response, raw: Vec<u64>) {
    const EXTREMES: [f64; 11] = [
        0.0,
        -0.0,
        5e-324,
        -2.2250738585072e-310,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e21,
        1e-7,
        f64::INFINITY,
        f64::NAN,
    ];
    let mut w = Words(raw.into_iter());
    let float = |w: &mut Words| {
        if w.below(2) == 0 {
            EXTREMES[w.below(EXTREMES.len() as u64) as usize]
        } else {
            w.float()
        }
    };
    match response {
        Response::Estimate(a) => {
            a.charge_per_cycle = float(&mut w);
            a.via_average = float(&mut w);
            a.average_hd = float(&mut w);
            a.confidence = float(&mut w);
            a.source = w.message();
        }
        Response::Characterize(c) => c.source = w.message(),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Client encode → server decode is the identity on both
    /// protocols, deadline included; only ping and the cluster ops have
    /// no v1 spelling.
    #[test]
    fn every_request_round_trips_through_both_codecs(raw in words()) {
        let (request, deadline) = request_from(raw);

        match protocol::encode_request(&request, deadline.map(u64::from)) {
            None => prop_assert!(
                matches!(
                    request,
                    Request::Ping
                        | Request::FetchModel { .. }
                        | Request::HaveModel { .. }
                        | Request::WarmKeys { .. }
                ),
                "{:?} has a v1 spelling",
                request
            ),
            Some(line) => {
                let decoded = protocol::decode(line.as_bytes()).expect("decodes");
                prop_assert_eq!(
                    decoded,
                    Some(Decoded {
                        request: Ok(request.clone()),
                        deadline_ms: deadline.map(u64::from),
                    })
                );
            }
        }

        let mut frame = Vec::new();
        wire::encode_request(&mut frame, 41, &request, deadline.unwrap_or(0));
        let header = wire::decode_header(frame[..wire::HEADER_LEN].try_into().unwrap());
        prop_assert_eq!(header.id, 41);
        prop_assert_eq!(header.len as usize, frame.len() - wire::HEADER_LEN);
        prop_assert_eq!(header.extra, deadline.unwrap_or(0));
        prop_assert_eq!(
            wire::decode_request(header.op, &frame[wire::HEADER_LEN..]),
            Ok(request)
        );
    }

    /// One response reads back identically through the v1 and the
    /// v2 codec (the cluster answers through v2 alone); the v2 reply
    /// memo's source label is the only permitted difference.
    #[test]
    fn one_response_reads_back_the_same_on_both_protocols(raw in words(), late in any::<bool>()) {
        let (request, response) = response_from(raw);
        if !v2_only(&response) {
            prop_assert_eq!(&v1_reply(&request, &response), &response);
        }
        let (mut frame, v2) = v2_reply(&request, &response, late);
        prop_assert_eq!(&v2, &response);

        if let Response::Estimate(answer) = &response {
            frame[wire::HEADER_LEN + wire::ESTIMATE_REPLY_SOURCE_OFFSET] = wire::SOURCE_MEMO;
            let memo = wire::decode_reply(wire::Opcode::Estimate, wire::STATUS_OK, &frame[wire::HEADER_LEN..])
                .expect("memo reply decodes");
            prop_assert_eq!(
                memo,
                Response::Estimate(EstimateAnswer { source: "memo".into(), ..answer.clone() })
            );
        }
    }

    /// Arbitrary bytes give every decoder a value or a typed error,
    /// never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
        op in any::<u8>(),
        status in 0u8..8,
    ) {
        let _ = protocol::decode(&bytes);
        let _ = protocol::decode_reply(&String::from_utf8_lossy(&bytes));
        let _ = wire::decode_request(op, &bytes);
        let _ = wire::decode_estimate_request(&bytes);
        // Every assigned opcode, the cluster ops included, in both
        // directions.
        for op in 0..=8 {
            let _ = wire::decode_request(op, &bytes);
            if let Some(op) = wire::Opcode::from_u8(op) {
                let _ = wire::decode_reply(op, status, &bytes);
                let _ = wire::decode_reply(op, wire::STATUS_OK, &bytes);
            }
        }
        if bytes.len() >= wire::HEADER_LEN {
            let _ = wire::decode_header(bytes[..wire::HEADER_LEN].try_into().unwrap());
        }
    }

    /// The v1 reply encoder writes straight from the typed response;
    /// its bytes must be those of the `Value` oracle rendered, plus the
    /// trace id and the newline, appended after whatever the buffer
    /// already holds.
    #[test]
    fn the_v1_encoder_writes_the_bytes_of_its_value_oracle(
        raw in words(),
        extra in words(),
        trace in any::<u64>(),
        traced in any::<bool>(),
    ) {
        let (request, mut response) = response_from(raw);
        if !v2_only(&response) {
            sharpen(&mut response, extra);
            let requests = match response {
                Response::Error { .. } => vec![Some(&request), None],
                _ => vec![Some(&request)],
            };
            for request in requests {
                let mut expected = protocol::render(&protocol::reply_value(request, &response));
                if traced {
                    expected.pop();
                    expected.push_str(&format!(",\"trace\":\"t{trace:016x}\"}}"));
                }
                expected.push('\n');
                let mut line = b"prefix".to_vec();
                protocol::encode_reply(&mut line, request, &response, traced.then_some(trace));
                prop_assert_eq!(String::from_utf8(line).unwrap(), format!("prefix{expected}"));
            }
        }
    }

    /// Valid request lines, request frames and reply frames with bytes
    /// flipped or cut off reach the decoders' deeper branches; they too
    /// answer with a value or a typed error.
    #[test]
    fn damaged_requests_never_panic_a_decoder(
        raw in words(),
        reply_raw in words(),
        cut in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let (request, deadline) = request_from(raw);
        let mut samples: Vec<Vec<u8>> = Vec::new();
        if let Some(line) = protocol::encode_request(&request, deadline.map(u64::from)) {
            samples.push(line.into_bytes());
        }
        let mut frame = Vec::new();
        wire::encode_request(&mut frame, 1, &request, 0);
        samples.push(frame[wire::HEADER_LEN..].to_vec());
        for mut sample in samples {
            if !sample.is_empty() {
                let at = (flip % sample.len() as u64) as usize;
                sample[at] ^= (flip >> 32) as u8 | 1;
                let end = (cut % (sample.len() as u64 + 1)) as usize;
                let _ = protocol::decode(&sample);
                let _ = protocol::decode(&sample[..end]);
                for op in 0..=8 {
                    let _ = wire::decode_request(op, &sample);
                    let _ = wire::decode_request(op, &sample[..end]);
                }
            }
        }

        let (request, response) = response_from(reply_raw);
        let (frame, _) = v2_reply(&request, &response, false);
        let mut payload = frame[wire::HEADER_LEN..].to_vec();
        if !payload.is_empty() {
            let at = (flip % payload.len() as u64) as usize;
            payload[at] ^= (flip >> 32) as u8 | 1;
        }
        let end = (cut % (payload.len() as u64 + 1)) as usize;
        for op in (0..=8).filter_map(wire::Opcode::from_u8) {
            let _ = wire::decode_reply(op, wire::STATUS_OK, &payload);
            let _ = wire::decode_reply(op, wire::STATUS_OK, &payload[..end]);
        }
    }
}

proptest! {
    // Each case builds up to a megabyte of input.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Long inputs, deep nesting and lines past the server's line cap,
    /// also give every decoder a value or a typed error, never a panic
    /// or a stack overflow.
    #[test]
    fn long_inputs_never_panic_a_decoder(
        depth in 0usize..20_000,
        shape in any::<u64>(),
        past_cap in any::<bool>(),
    ) {
        let mut line = String::new();
        if past_cap {
            line.push_str("{\"op\":\"");
            line.push_str(&"a".repeat(wire::MAX_PAYLOAD as usize + (shape % 64) as usize));
            if shape & 1 == 0 {
                line.push_str("\"}");
            }
        }
        for level in 0..depth {
            line.push_str(if (shape >> (level % 64)) & 1 == 0 { "[" } else { "{\"k\":" });
        }
        if shape & 2 == 0 {
            for level in (0..depth).rev() {
                line.push(if (shape >> (level % 64)) & 1 == 0 { ']' } else { '}' });
            }
        }
        let _ = protocol::decode(line.as_bytes());
        let _ = protocol::decode_reply(&line);
        let wrapped = format!("{{\"ok\":false,\"error\":{line}}}");
        let _ = protocol::decode(wrapped.as_bytes());
        let _ = protocol::decode_reply(&wrapped);
    }
}

/// The decoders' typed errors for the malformed shapes the property
/// tests only sample.
#[test]
fn decoders_name_what_is_wrong() {
    let (kind, message) = protocol::decode(b"{\"op\":").unwrap_err();
    assert_eq!(kind, protocol::ErrorKind::Malformed, "{message}");
    let (kind, _) = protocol::decode(&[0xC3, 0x28]).unwrap_err();
    assert_eq!(kind, protocol::ErrorKind::InvalidUtf8);
    assert_eq!(protocol::decode(b"  \t").unwrap(), None, "blank line");
    let decoded = protocol::decode(
        b"{\"op\":\"estimate\",\"module\":\"ripple_adder\",\"width\":4,\"cycles\":99999999999}",
    )
    .unwrap()
    .unwrap();
    assert_eq!(
        decoded.request,
        Err((
            protocol::ErrorKind::BadRequest,
            "cycles 99999999999 out of range".into()
        ))
    );
    assert!(protocol::decode_reply("{\"ok\":true,\"op\":\"estimate\"}")
        .unwrap_err()
        .contains("v1 reply missing"));
    assert!(
        wire::decode_reply(wire::Opcode::Stats, wire::STATUS_OK, &[0; 3])
            .unwrap_err()
            .contains("96 bytes")
    );
    assert!(
        wire::decode_reply(wire::Opcode::WarmKeys, wire::STATUS_OK, &[])
            .unwrap_err()
            .contains("at least 2 bytes")
    );
    assert!(
        wire::decode_reply(wire::Opcode::HaveModel, wire::STATUS_OK, &[2])
            .unwrap_err()
            .contains("unknown have-model byte 2")
    );
    assert_eq!(
        wire::decode_request(wire::Opcode::HaveModel as u8, &[0; 4]),
        Err((
            protocol::ErrorKind::BadRequest,
            "spec payload must be 5 bytes, got 4".into()
        ))
    );
}

/// The cluster ops encode through the typed path to exactly the bytes
/// docs/protocol.md lays out: a 17-byte header (`len` u32, `id` u64,
/// `op`/status u8, `extra` u32, all little-endian), then a 5-byte spec
/// (module code u8, m1 u16, m2 u16 with 0 = uniform), a warm-key list
/// (count u16, then 5-byte specs), a presence byte or the envelope bytes
/// verbatim.
#[test]
fn cluster_ops_keep_their_documented_bytes() {
    const ID: u64 = 0x0102_0304_0506_0708;
    let header = |len: u32, op: u8, extra: u32| {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&ID.to_le_bytes());
        bytes.push(op);
        bytes.extend_from_slice(&extra.to_le_bytes());
        bytes
    };
    let code = |kind: ModuleKind| ModuleKind::ALL.iter().position(|k| *k == kind).unwrap() as u8;
    let adder = ModuleSpec::new(ModuleKind::RippleAdder, ModuleWidth::Uniform(12));
    let adder_bytes = [code(ModuleKind::RippleAdder), 12, 0, 0, 0];
    let mult = ModuleSpec::new(ModuleKind::CsaMultiplier, ModuleWidth::Rect(300, 8));
    let mult_bytes = [code(ModuleKind::CsaMultiplier), 0x2C, 0x01, 8, 0];
    let warm_list = [&[2u8, 0][..], &adder_bytes, &mult_bytes].concat();

    let request_frame = |request: &Request, deadline_ms: u32| {
        let mut frame = Vec::new();
        wire::encode_request(&mut frame, ID, request, deadline_ms);
        frame
    };
    let requests = [
        (
            Request::FetchModel { spec: adder },
            5u8,
            adder_bytes.to_vec(),
        ),
        (Request::HaveModel { spec: mult }, 6, mult_bytes.to_vec()),
        (
            Request::WarmKeys {
                specs: vec![adder, mult],
            },
            7,
            warm_list.clone(),
        ),
    ];
    for (request, op, payload) in requests {
        let expected = [header(payload.len() as u32, op, 250), payload.clone()].concat();
        assert_eq!(request_frame(&request, 250), expected, "{request:?}");
        assert_eq!(wire::decode_request(op, &payload), Ok(request));
    }

    let reply_frame = |response: &Response, late: bool| {
        let mut frame = Vec::new();
        wire::encode_reply(&mut frame, ID, late, response);
        frame
    };
    let envelope = b"{\"hdpm_envelope\":1}".to_vec();
    let replies = [
        (
            wire::Opcode::FetchModel,
            Response::Artifact(Some(envelope.clone())),
            envelope,
        ),
        (wire::Opcode::FetchModel, Response::Artifact(None), vec![]),
        (wire::Opcode::HaveModel, Response::HaveModel(true), vec![1]),
        (wire::Opcode::HaveModel, Response::HaveModel(false), vec![0]),
        (
            wire::Opcode::WarmKeys,
            Response::WarmKeys(vec![adder, mult]),
            warm_list,
        ),
        (
            wire::Opcode::WarmKeys,
            Response::WarmKeys(vec![]),
            vec![0, 0],
        ),
    ];
    for (op, response, payload) in replies {
        for late in [false, true] {
            let flags = u32::from(late) * wire::FLAG_LATE;
            let expected = [
                header(payload.len() as u32, wire::STATUS_OK, flags),
                payload.clone(),
            ]
            .concat();
            assert_eq!(reply_frame(&response, late), expected, "{response:?}");
        }
        assert_eq!(
            wire::decode_reply(op, wire::STATUS_OK, &payload),
            Ok(response)
        );
    }
}
