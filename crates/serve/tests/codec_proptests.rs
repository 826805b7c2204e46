//! Property tests for the wire codec: encode → parse is the identity for
//! every representable request and response, and *no* input — malformed,
//! truncated, or mutated — ever panics the parser. Every failure is a typed
//! [`RequestError`]; the server's "malformed input never disconnects"
//! guarantee rests on exactly this.
//!
//! Runs under the offline `proptest` shim: deterministic seed, no
//! shrinking — a failing case prints its inputs via the assertion message.

use proptest::prelude::*;

use iconv_core::PipelineSchedule;
use iconv_gpusim::GpuAlgo;
use iconv_serve::protocol::{
    batch_summary_body, encode_batch, encode_estimate, encode_simple, encode_tuned_estimate,
    error_body, f64_bits, f64_from_bits, finish_item_response, finish_response, gpu_body,
    parse_request, parse_response, pong_body, shutdown_body, stats_body, tpu_body, tune_body,
    GpuEstimate, LatencyHist, StatsSnapshot, TpuEstimate, TuneEstimate, TuneTarget, TunedConfig,
};
use iconv_serve::{
    json, ErrorKind, EstimateRequest, GpuHwSpec, Request, Response, TpuChip, TpuHwSpec, Work,
};
use iconv_tensor::{ConvShape, Layout};
use iconv_tpusim::SimMode;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A valid conv shape: random dims pushed through the builder, rejecting
/// combinations where the dilated filter outgrows the padded input.
fn shape_strategy() -> impl proptest::strategy::Strategy<Value = ConvShape> {
    (
        (1usize..=8, 1usize..=128, 3usize..=40, 3usize..=40),
        (1usize..=256, 1usize..=7, 1usize..=7),
        (1usize..=3, 0usize..=3, 1usize..=2),
    )
        .prop_filter_map(
            "buildable shape",
            |((n, ci, hi, wi), (co, hf, wf), (s, p, d))| {
                ConvShape::new(n, ci, hi, wi, co, hf, wf)
                    .stride(s)
                    .pad(p)
                    .dilation(d)
                    .build()
                    .ok()
            },
        )
}

fn mode_strategy() -> impl proptest::strategy::Strategy<Value = SimMode> {
    (0u8..4, 1usize..=16).prop_map(|(tag, g)| match tag {
        0 => SimMode::ChannelFirst,
        1 => SimMode::Explicit,
        2 => SimMode::Indirect,
        _ => SimMode::ChannelFirstGrouped(g),
    })
}

/// Non-forward passes only: a `ConvPass::Forward` pass-variant normalizes
/// to the plain conv on the wire (by design), so it is not roundtrip-
/// identical and is covered by the unit tests instead.
fn pass_strategy() -> impl proptest::strategy::Strategy<Value = iconv_core::ConvPass> {
    prop::sample::select(vec![
        iconv_core::ConvPass::Wgrad,
        iconv_core::ConvPass::Dgrad,
        iconv_core::ConvPass::Transpose,
    ])
}

fn algo_strategy() -> impl proptest::strategy::Strategy<Value = GpuAlgo> {
    prop::sample::select(vec![
        GpuAlgo::CudnnImplicit,
        GpuAlgo::ChannelFirst { reuse: true },
        GpuAlgo::ChannelFirst { reuse: false },
        GpuAlgo::ExplicitIm2col,
        GpuAlgo::GemmEquivalent,
        GpuAlgo::Indirect,
    ])
}

fn hw_strategy() -> impl proptest::strategy::Strategy<Value = TpuHwSpec> {
    (
        0u8..2,
        (0usize..=4, 0usize..=3, 0usize..=2),
        0usize..=4,
        0usize..=2,
    )
        .prop_map(|(chip, (array, word, mxus), layout, sched)| TpuHwSpec {
            chip: if chip == 0 { TpuChip::V2 } else { TpuChip::V3 },
            array: [None, Some(64), Some(128), Some(256), Some(512)][array],
            word_elems: [None, Some(4), Some(8), Some(16)][word],
            mxus: [None, Some(1), Some(2)][mxus],
            layout: [
                None,
                Some(Layout::Hwcn),
                Some(Layout::Nhwc),
                Some(Layout::Nchw),
                Some(Layout::Chwn),
            ][layout],
            schedule: [
                None,
                Some(PipelineSchedule::SingleBuffered),
                Some(PipelineSchedule::DoubleBuffered),
            ][sched],
        })
}

/// Valid GPU hardware overrides (every combination here passes the
/// shared-memory validator `GpuHwSpec::resolve`, which parsing re-runs).
fn gpu_hw_strategy() -> impl proptest::strategy::Strategy<Value = GpuHwSpec> {
    (0usize..=2, 0usize..=2, 0usize..=2, 0usize..=1, 0usize..=2).prop_map(
        |(sms, clock, block, rpsm, sched)| GpuHwSpec {
            sms: [None, Some(40), Some(108)][sms],
            tc_macs: None,
            clock_mhz: [None, Some(1312.5), Some(940.0)][clock],
            block: [None, Some((64, 64, 32)), Some((128, 64, 32))][block],
            blocks_per_sm: [None, Some(1)][rpsm],
            schedule: [
                None,
                Some(PipelineSchedule::SingleBuffered),
                Some(PipelineSchedule::DoubleBuffered),
            ][sched],
        },
    )
}

fn target_strategy() -> impl proptest::strategy::Strategy<Value = TuneTarget> {
    prop::sample::select(vec![
        TuneTarget::Tpu { chip: TpuChip::V2 },
        TuneTarget::Tpu { chip: TpuChip::V3 },
        TuneTarget::Gpu,
    ])
}

/// Client ids with the characters that stress the string escaper: quotes,
/// backslashes, control chars, multibyte unicode, astral-plane codepoints.
fn id_strategy() -> impl proptest::strategy::Strategy<Value = Option<String>> {
    (0usize..=8, 0u64..u64::MAX).prop_map(|(len, seed)| {
        if len == 0 {
            return None;
        }
        const ALPHABET: [char; 16] = [
            'a', 'Z', '0', '-', '_', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{7f}', 'é', 'λ', '軸',
            '𝄞',
        ];
        let mut s = String::new();
        let mut x = seed;
        for _ in 0..len {
            s.push(ALPHABET[(x % ALPHABET.len() as u64) as usize]);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        Some(s)
    })
}

fn work_strategy() -> impl proptest::strategy::Strategy<Value = Work> {
    (
        0u8..6,
        shape_strategy(),
        (
            mode_strategy(),
            algo_strategy(),
            target_strategy(),
            pass_strategy(),
        ),
        (hw_strategy(), gpu_hw_strategy()),
        (1usize..5000, 1usize..5000, 1usize..5000),
    )
        .prop_map(
            |(tag, shape, (mode, algo, target, pass), (hw, ghw), (m, n, k))| match tag {
                0 => Work::TpuConv { shape, mode, hw },
                1 => Work::TpuGemm { m, n, k, hw },
                2 => Work::GpuConv {
                    shape,
                    algo,
                    hw: ghw,
                },
                3 => Work::TpuPass {
                    shape,
                    pass,
                    mode,
                    hw,
                },
                4 => Work::GpuPass {
                    shape,
                    pass,
                    algo,
                    hw: ghw,
                },
                _ => Work::Tune { shape, target },
            },
        )
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode_estimate → parse_request is the identity on the full request
    /// space, including ids that need heavy escaping.
    #[test]
    fn estimate_roundtrip(work in work_strategy(), id in id_strategy(), dl in 0u64..=3) {
        let req = EstimateRequest {
            id: id.clone(),
            work,
            deadline_ms: [None, Some(0), Some(50), Some(u64::MAX / 1000)][dl as usize],
        };
        let line = encode_estimate(&req);
        match parse_request(&line) {
            Ok(Request::Estimate(back)) => prop_assert_eq!(back, req, "line {}", line),
            other => panic!("{line} did not parse back as an estimate: {other:?}"),
        }
    }

    /// Control ops round-trip with their ids intact.
    #[test]
    fn simple_op_roundtrip(op in prop::sample::select(vec!["stats", "ping", "shutdown"]),
                           id in id_strategy()) {
        let line = encode_simple(op, id.as_deref());
        let back = parse_request(&line).expect("control op must parse");
        let got_id = match &back {
            Request::Stats { id } | Request::Ping { id } | Request::Shutdown { id } => id.clone(),
            other => panic!("{line} parsed as {other:?}"),
        };
        prop_assert_eq!(got_id, id);
    }

    /// TPU estimate bodies survive finish_response → parse_response.
    #[test]
    fn tpu_response_roundtrip(v in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
                              w in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
                              x in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
                              id in id_strategy()) {
        let est = TpuEstimate {
            cycles: v.0, compute_cycles: v.1, exposed_memory_cycles: v.2,
            dram_bytes: w.0, workspace_bytes: w.1, flops: w.2,
            dispatch: x.0, first_fill: x.1, steady: x.2,
        };
        let line = finish_response(id.as_deref(), &tpu_body(&est));
        match parse_response(&line) {
            Ok(Response::Tpu { id: got, est: back }) => {
                prop_assert_eq!(got, id);
                prop_assert_eq!(back, est);
            }
            other => panic!("{line} did not parse back: {other:?}"),
        }
    }

    /// GPU estimate bodies are *bit*-exact through the wire, for any f64
    /// bit pattern — infinities and NaN payloads included (this is the
    /// property `expall --via-serve` byte-identity rests on).
    #[test]
    fn gpu_response_roundtrip_bitexact(bits in (0u64..u64::MAX, 0u64..u64::MAX,
                                                0u64..u64::MAX, 0u64..u64::MAX),
                                       ints in (0u64..u64::MAX, 0u64..u64::MAX),
                                       id in id_strategy()) {
        let est = GpuEstimate {
            cycles: f64::from_bits(bits.0),
            compute_cycles: f64::from_bits(bits.1),
            memory_cycles: f64::from_bits(bits.2),
            transform_cycles: f64::from_bits(bits.3),
            blocks: ints.0,
            flops: ints.1,
        };
        let line = finish_response(id.as_deref(), &gpu_body(&est));
        match parse_response(&line) {
            Ok(Response::Gpu { id: got, est: back }) => {
                prop_assert_eq!(got, id);
                // NaN != NaN, so compare representations, not values.
                prop_assert_eq!(back.cycles.to_bits(), bits.0);
                prop_assert_eq!(back.compute_cycles.to_bits(), bits.1);
                prop_assert_eq!(back.memory_cycles.to_bits(), bits.2);
                prop_assert_eq!(back.transform_cycles.to_bits(), bits.3);
                prop_assert_eq!((back.blocks, back.flops), ints);
            }
            other => panic!("{line} did not parse back: {other:?}"),
        }
    }

    /// encode_batch → parse_request is the identity on arbitrary item
    /// vectors, and the batch summary/item framing round-trips.
    #[test]
    fn batch_roundtrip(w1 in work_strategy(), w2 in work_strategy(), w3 in work_strategy(),
                       len in 1usize..=3,
                       id in id_strategy(), dl in 0u64..=2,
                       counts in (0u64..1 << 40, 0u64..1 << 40)) {
        let mut works = vec![w1, w2, w3];
        works.truncate(len);
        let deadline_ms = [None, Some(1), Some(2500)][dl as usize];
        let line = encode_batch(id.as_deref(), &works, deadline_ms);
        match parse_request(&line) {
            Ok(Request::Batch { id: got, items, deadline_ms: got_dl }) => {
                prop_assert_eq!(got, id.clone());
                prop_assert_eq!(items, works.clone());
                prop_assert_eq!(got_dl, deadline_ms);
            }
            other => panic!("{line} did not parse back as a batch: {other:?}"),
        }
        let line = finish_response(id.as_deref(), &batch_summary_body(counts.0, counts.1));
        match parse_response(&line) {
            Ok(Response::Batch { id: got, items, errors }) => {
                prop_assert_eq!(got, id.clone());
                prop_assert_eq!((items, errors), counts);
            }
            other => panic!("{line} did not parse back as a summary: {other:?}"),
        }
        // An item line is the underlying estimate line plus the item tag.
        let est = TpuEstimate { cycles: counts.0, ..TpuEstimate::default() };
        let line = finish_item_response(id.as_deref(), 7, &tpu_body(&est));
        match parse_response(&line) {
            Ok(Response::Tpu { id: got, est: back }) => {
                prop_assert_eq!(got, id.clone());
                prop_assert_eq!(back, est);
            }
            other => panic!("{line} did not parse back as an item: {other:?}"),
        }
    }

    /// `tune` responses are bit-exact through the wire for any cycle bit
    /// pattern, and the winning config survives re-parsing; the
    /// `"hw":"tuned"` conv framing parses back to its fields.
    #[test]
    fn tune_response_and_tuned_framing_roundtrip(
        shape in shape_strategy(),
        target in target_strategy(),
        mode in mode_strategy(),
        hw in hw_strategy(),
        algo in algo_strategy(),
        ghw in gpu_hw_strategy(),
        bits in (0u64..u64::MAX, 0u64..u64::MAX),
        counts in (0u64..500, 0u64..500),
        id in id_strategy(),
        dl in 0u64..=2,
    ) {
        let best = match target {
            TuneTarget::Tpu { .. } => TunedConfig::Tpu { mode, hw },
            TuneTarget::Gpu => TunedConfig::Gpu { algo, hw: ghw },
        };
        // Cycle counts are always finite in practice (NaN/inf have no JSON
        // decimal rendering); keep the full mantissa/sign space.
        let finite = |bits: u64| {
            let v = f64::from_bits(bits);
            if v.is_finite() { v } else { f64::from_bits(bits & !(0x7ff0u64 << 48)) }
        };
        let est = TuneEstimate {
            best,
            tuned_cycles: finite(bits.0),
            default_cycles: finite(bits.1),
            candidates: counts.0,
            pruned: counts.1,
        };
        let line = finish_response(id.as_deref(), &tune_body(&est));
        match parse_response(&line) {
            Ok(Response::Tune { id: got, est: back }) => {
                prop_assert_eq!(got, id.clone());
                prop_assert_eq!(back.best, est.best);
                prop_assert_eq!(back.tuned_cycles.to_bits(), est.tuned_cycles.to_bits());
                prop_assert_eq!(back.default_cycles.to_bits(), est.default_cycles.to_bits());
                prop_assert_eq!((back.candidates, back.pruned), counts);
            }
            other => panic!("{line} did not parse back: {other:?}"),
        }

        let deadline_ms = [None, Some(5), Some(9000)][dl as usize];
        let line = encode_tuned_estimate(id.as_deref(), &shape, &target, deadline_ms);
        match parse_request(&line) {
            Ok(Request::TunedEstimate { id: got, shape: s, target: t, deadline_ms: d }) => {
                prop_assert_eq!(got, id.clone());
                prop_assert_eq!(s, shape);
                prop_assert_eq!(t, target);
                prop_assert_eq!(d, deadline_ms);
            }
            other => panic!("{line} did not parse back as tuned conv: {other:?}"),
        }
    }

    /// f64 bit transport is the identity on raw bit patterns.
    #[test]
    fn f64_bits_roundtrip(bits in 0u64..u64::MAX) {
        let v = f64::from_bits(bits);
        prop_assert_eq!(f64_from_bits(&f64_bits(v)).map(f64::to_bits), Some(bits));
    }

    /// Stats and error bodies round-trip; pong/shutdown parse back to their
    /// variants.
    #[test]
    fn control_response_roundtrip(vals in (0u64..1 << 50, 0u64..1 << 50, 0u64..1 << 50),
                                  kind_ix in 0usize..6,
                                  detail in id_strategy(),
                                  id in id_strategy()) {
        let stats = StatsSnapshot {
            requests: vals.0 + vals.1,
            hits: vals.0,
            misses: vals.1,
            evictions: vals.2,
            cache_entries: vals.0 % 97,
            cache_capacity: 16384,
            queue_depth: vals.1 % 13,
            in_flight: vals.2 % 7,
            busy_rejections: vals.0 % 5,
            deadline_expired: vals.1 % 3,
            parse_errors: vals.2 % 11,
            workers: 1 + vals.2 % 8,
            batches: vals.0 % 17,
            batch_items: vals.1 % 19,
            batch_hits: vals.2 % 23,
            batch_misses: vals.0 % 29,
            batch_errors: vals.1 % 31,
            worker_crashes: vals.2 % 37,
            faults_injected: vals.0 % 41,
            faults_observed: vals.0 % 41,
            tunes: (vals.1 % 43) + (vals.2 % 47),
            tune_searches: vals.1 % 43,
            tune_cached: vals.2 % 47,
            service_hist: {
                // A deterministic non-trivial histogram exercises the sparse
                // bucket encoding on the wire, including the empty case.
                let mut h = LatencyHist::new();
                for k in 0..vals.2 % 9 {
                    h.record(vals.0.wrapping_mul(k + 1) % (1 << 40));
                }
                h
            },
        };
        let line = finish_response(id.as_deref(), &stats_body(&stats));
        match parse_response(&line) {
            Ok(Response::Stats { id: got, stats: back }) => {
                prop_assert_eq!(got, id.clone());
                prop_assert_eq!(back, stats);
            }
            other => panic!("{line} did not parse back: {other:?}"),
        }

        let kind = [
            ErrorKind::Busy,
            ErrorKind::Deadline,
            ErrorKind::Parse,
            ErrorKind::BadRequest,
            ErrorKind::ShuttingDown,
            ErrorKind::WorkerCrashed,
        ][kind_ix];
        let detail = detail.unwrap_or_default();
        let line = finish_response(id.as_deref(), &error_body(kind, &detail));
        match parse_response(&line) {
            Ok(Response::Error { id: got, kind: k, detail: d }) => {
                prop_assert_eq!(got, id.clone());
                prop_assert_eq!(k, kind);
                prop_assert_eq!(d, detail);
            }
            other => panic!("{line} did not parse back: {other:?}"),
        }

        for (body, want_pong) in [(pong_body(), true), (shutdown_body(), false)] {
            let line = finish_response(id.as_deref(), &body);
            match (parse_response(&line), want_pong) {
                (Ok(Response::Pong { id: got }), true)
                | (Ok(Response::ShutdownAck { id: got }), false) => {
                    prop_assert_eq!(got, id.clone());
                }
                (other, _) => panic!("{line} did not parse back: {other:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed-input fuzzing: typed errors, never panics
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Random byte soup: the parser must return (a typed error or, for the
    /// astronomically unlikely valid line, a request) without panicking.
    #[test]
    fn random_bytes_never_panic(len in 0usize..64, seed in 0u64..u64::MAX) {
        let mut bytes = Vec::with_capacity(len);
        let mut x = seed | 1;
        for _ in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bytes.push((x & 0xff) as u8);
        }
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_request(&line);
        let _ = parse_response(&line);
        let _ = json::parse(&line);
    }

    /// JSON-looking garbage assembled from structural tokens: deep nesting,
    /// dangling commas, unterminated strings. Typed errors only.
    #[test]
    fn token_soup_never_panics(len in 0usize..48, seed in 0u64..u64::MAX) {
        const TOKENS: [&str; 14] = [
            "{", "}", "[", "]", ":", ",", "\"", "\\", "null", "true", "1e999",
            "\"op\"", "\"conv\"", "-",
        ];
        let mut s = String::new();
        let mut x = seed | 1;
        for _ in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.push_str(TOKENS[(x % TOKENS.len() as u64) as usize]);
        }
        let _ = parse_request(&s);
        let _ = parse_response(&s);
    }

    /// Every proper prefix of a valid request line is a Parse error (and
    /// carries no panic): truncation mid-stream can never take the server
    /// down or be mistaken for a request.
    #[test]
    fn truncations_are_parse_errors(work in work_strategy(), cut in 0usize..10_000) {
        let line = encode_estimate(&EstimateRequest { id: Some("t".into()), work, deadline_ms: None });
        let mut cut = cut % line.len();
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        if cut == 0 {
            // Empty input is still a typed parse error.
            let err = parse_request("").expect_err("empty line must not parse");
            prop_assert_eq!(err.kind, ErrorKind::Parse);
        } else {
            let err = parse_request(&line[..cut]).expect_err("proper prefix must not parse");
            prop_assert_eq!(err.kind, ErrorKind::Parse);
        }
    }

    /// Single-byte corruption of a valid line: typed error or a different
    /// valid parse — never a panic, and never a misattributed id when the
    /// id bytes were untouched.
    #[test]
    fn mutations_never_panic(work in work_strategy(), pos in 0usize..10_000, b in 0u8..=255) {
        let line = encode_estimate(&EstimateRequest { id: None, work, deadline_ms: None });
        let mut bytes = line.into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = b;
        let mutated = String::from_utf8_lossy(&bytes);
        let _ = parse_request(&mutated);
    }

    /// Well-formed JSON that is not a valid request gets `bad-request` (not
    /// `parse`), with the id salvaged for addressing the error response.
    #[test]
    fn wrong_shape_json_is_bad_request(n in 0u64..1000) {
        for line in [
            format!("{{\"id\":\"x{n}\",\"op\":\"warp\"}}"),
            format!("{{\"id\":\"x{n}\",\"op\":\"conv\"}}"),
            format!("{{\"id\":\"x{n}\",\"op\":\"conv\",\"target\":\"tpu\",\"layer\":{{\"n\":{n}}}}}"),
            format!("{{\"id\":\"x{n}\",\"op\":\"gemm\",\"m\":1,\"n\":2}}"),
            format!("{{\"id\":\"x{n}\"}}"),
            format!("[{n}]"),
            format!("{n}"),
        ] {
            let err = parse_request(&line).expect_err("not a valid request");
            prop_assert_eq!(err.kind, ErrorKind::BadRequest, "line {}", line);
            if line.starts_with("{\"id\"") {
                prop_assert_eq!(err.id.as_deref(), Some(format!("x{n}").as_str()),
                    "id must be salvaged from {}", line);
            }
        }
    }
}
