//! No byte of `input.json` or `lcurve.out` panics the reader or turns into
//! a configuration (or a curve) other than the one the bytes spell out.
//!
//! The `json_reader.rs` pattern — every proper prefix, every single-bit
//! flip — applied to the two readers behind the evaluation workflow,
//! [`TrainConfig::from_input_json`] and [`Lcurve::parse`], plus a sweep
//! that bytes alone rarely reach: every leaf of a valid `input.json`
//! replaced by values of the wrong kind, sign or size, and every key
//! removed. The outcome is a structured error or a value that says what the
//! damaged document says; "what it says" is checked independently of the
//! reader, by rendering the accepted configuration back and comparing it
//! with the document field by field.

use dphpo_dnnp::json::Json;
use dphpo_dnnp::{Activation, Lcurve, LcurveRow, LrScaling, TrainConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every field `from_input_json` reads.
const PATHS: [&[&str]; 19] = [
    &["model", "descriptor", "rcut"],
    &["model", "descriptor", "rcut_smth"],
    &["model", "descriptor", "neuron"],
    &["model", "descriptor", "activation_function"],
    &["model", "fitting_net", "neuron"],
    &["model", "fitting_net", "activation_function"],
    &["learning_rate", "start_lr"],
    &["learning_rate", "stop_lr"],
    &["learning_rate", "scale_by_worker"],
    &["loss", "start_pref_e"],
    &["loss", "limit_pref_e"],
    &["loss", "start_pref_f"],
    &["loss", "limit_pref_f"],
    &["training", "numb_steps"],
    &["training", "batch_size"],
    &["training", "n_workers"],
    &["training", "disp_freq"],
    &["training", "val_max_frames"],
    &["training", "seed"],
];

/// A valid configuration with every field off its default, so that a field
/// read from the wrong place shows.
fn wild_config(rng: &mut StdRng) -> TrainConfig {
    let widths = |rng: &mut StdRng| -> Vec<usize> {
        (0..rng.random_range(1..4usize)).map(|_| rng.random_range(1..300usize)).collect()
    };
    TrainConfig {
        start_lr: rng.random_range(1e-4..1e-2),
        stop_lr: rng.random_range(1e-9..1e-4),
        rcut: rng.random_range(6.0..12.0),
        rcut_smth: rng.random_range(0.5..5.5),
        scale_by_worker: LrScaling::ALL[rng.random_range(0..3usize)],
        desc_activation: Activation::ALL[rng.random_range(0..Activation::ALL.len())],
        fitting_activation: Activation::ALL[rng.random_range(0..Activation::ALL.len())],
        embedding_neurons: widths(rng),
        fitting_neurons: widths(rng),
        start_pref_e: rng.random_range(0.01..1.0),
        start_pref_f: rng.random_range(1.0..2000.0),
        limit_pref_e: rng.random_range(0.5..2.0),
        limit_pref_f: rng.random_range(0.5..2.0),
        num_steps: rng.random_range(1..50_000usize),
        batch_per_worker: rng.random_range(1..8usize),
        n_workers: rng.random_range(1..8usize),
        disp_freq: rng.random_range(1..1000usize),
        val_max_frames: rng.random_range(0..16usize),
        // Campaign seeds are 64-bit hashes, far beyond 2^53; as a JSON number
        // one is the nearest double, which is what reads back.
        seed: rng.random_range(0..u64::MAX) as f64 as u64,
    }
}

/// An accepted configuration says what `doc` says: rendered back, every
/// field the reader reads equals the document's.
fn assert_says_what_the_document_says(config: &TrainConfig, doc: &Json, context: &str) {
    let rendered = config.to_input_json();
    for path in PATHS {
        assert_eq!(rendered.at(path), doc.at(path), "{}: {context}", path.join("."));
    }
}

/// Read `text` as the workflow does. A panic anywhere fails the test by
/// itself; an accepted document is checked against what it says.
fn read_input(text: &str) -> Result<TrainConfig, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let config = TrainConfig::from_input_json(&doc)?;
    assert_says_what_the_document_says(&config, &doc, text);
    Ok(config)
}

/// `doc` with the value at `path` replaced (`Some`) or its key removed
/// (`None`).
fn edited(doc: &Json, path: &[&str], replacement: Option<&Json>) -> Json {
    let Json::Object(fields) = doc else { panic!("{path:?} runs through a non-object") };
    let (key, rest) = path.split_first().expect("a path names a field");
    let fields = fields
        .iter()
        .filter_map(|(k, v)| match (k == key, rest.is_empty(), replacement) {
            (false, _, _) => Some((k.clone(), v.clone())),
            (true, true, None) => None,
            (true, true, Some(new)) => Some((k.clone(), new.clone())),
            (true, false, _) => Some((k.clone(), edited(v, rest, replacement))),
        })
        .collect();
    Json::Object(fields)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_prefix_and_every_bit_flip_of_input_json_is_an_error_or_what_it_says(
        seed in i64::MIN..i64::MAX,
    ) {
        let config = wild_config(&mut StdRng::seed_from_u64(seed as u64));
        for text in [config.to_input_json().to_compact(), config.to_input_json().to_string()] {
            prop_assert_eq!(&read_input(&text).unwrap(), &config);
            let text = text.trim_end();
            for cut in 0..text.len() {
                prop_assert!(read_input(&text[..cut]).is_err(), "prefix {cut} of {text}");
            }
            let mut bytes = text.as_bytes().to_vec();
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    if let Ok(damaged) = std::str::from_utf8(&bytes) {
                        // The check is inside: an accepted document must be
                        // read for what it now says.
                        let _ = read_input(damaged);
                    }
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn every_leaf_of_input_json_of_the_wrong_kind_sign_or_size_is_refused(
        seed in i64::MIN..i64::MAX,
    ) {
        let config = wild_config(&mut StdRng::seed_from_u64(seed as u64));
        let doc = config.to_input_json();
        let wrong_kinds = [
            Json::Null,
            Json::Bool(true),
            Json::String("7".into()),
            Json::String(String::new()),
            Json::Array(Vec::new()),
            Json::Array(vec![Json::Null]),
            Json::Array(vec![Json::Number(-1.0)]),
            Json::Array(vec![Json::Number(2.5)]),
            Json::Array(vec![Json::String("25".into())]),
            Json::Object(Default::default()),
            Json::Number(-1.0),
            Json::Number(0.5),
            Json::Number(-0.0),
            Json::Number(1e300),
            Json::Number(-1e300),
            Json::Number(5e-324),
            Json::Number(18_446_744_073_709_551_616.0),
            Json::Number(4e19),
        ];
        for path in PATHS {
            let missing = edited(&doc, path, None);
            let err = TrainConfig::from_input_json(&missing).unwrap_err();
            prop_assert!(err.contains(&path.join(".")), "{err}");
            for wrong in &wrong_kinds {
                let damaged = edited(&doc, path, Some(wrong));
                if let Ok(accepted) = TrainConfig::from_input_json(&damaged) {
                    assert_says_what_the_document_says(&accepted, &damaged, &damaged.to_compact());
                }
            }
        }
        // The counts in particular: none of these is a step count.
        for wrong in [-1.0, 0.5, 1e300, 4e19] {
            let damaged = edited(&doc, &["training", "numb_steps"], Some(&Json::Number(wrong)));
            let err = TrainConfig::from_input_json(&damaged).unwrap_err();
            prop_assert!(err.contains("training.numb_steps is not a non-negative integer"), "{err}");
            let damaged = edited(
                &doc,
                &["model", "fitting_net", "neuron"],
                Some(&Json::Array(vec![Json::Number(240.0), Json::Number(wrong)])),
            );
            prop_assert!(TrainConfig::from_input_json(&damaged).is_err(), "width {wrong}");
        }
    }
}

/// `input.json` spells a network shape the reader reads faithfully — 10¹⁸ is
/// a whole number — so the judgement is `validate`'s: a zero-width, absurdly
/// wide or absurdly deep net is refused by name, before the trainer (which
/// validates first) sizes a single weight matrix for it.
#[test]
fn an_input_json_asking_for_an_absurd_network_is_refused_not_allocated() {
    use dphpo_md::generate::{generate_dataset, GenConfig};
    let mut rng = StdRng::seed_from_u64(5);
    let doc = wild_config(&mut rng).to_input_json();
    assert!(read_input(&doc.to_compact()).unwrap().validate().is_ok());
    let dataset = generate_dataset(&GenConfig { n_frames: 2, ..GenConfig::tiny() }, &mut rng);

    let widths = |ws: &[f64]| Json::Array(ws.iter().map(|&w| Json::Number(w)).collect());
    for (net, key, says) in [("descriptor", "embedding", "embedding net"), ("fitting_net", "fitting", "fitting net")] {
        for (neuron, complaint) in [
            (widths(&[240.0, 1e18]), "width 1000000000000000000"),
            (widths(&[240.0, 4097.0]), "width 4097"),
            (widths(&[0.0, 240.0]), "width 0"),
            (widths(&[]), "has 0 layers"),
            (widths(&[8.0; 17]), "has 17 layers"),
        ] {
            let damaged = edited(&doc, &["model", net, "neuron"], Some(&neuron));
            let config = read_input(&damaged.to_compact()).unwrap();
            let err = config.validate().unwrap_err();
            assert!(err.contains(says) && err.contains(complaint), "{key} {neuron:?}: {err}");
            let refused = dphpo_dnnp::train(&config, &dataset, &dataset, &mut rng).err();
            assert_eq!(refused.as_ref(), Some(&err), "{key} {neuron:?}");
        }
    }
    // The paper's own shapes, and the bounds themselves, pass.
    for ok in [widths(&[25.0, 50.0, 100.0]), widths(&[4096.0; 16])] {
        let doc = edited(&doc, &["model", "fitting_net", "neuron"], Some(&ok));
        assert!(read_input(&doc.to_compact()).unwrap().validate().is_ok());
    }
}

/// A curve with rows of every magnitude the trainer writes.
fn wild_curve(rng: &mut StdRng) -> Lcurve {
    let mut curve = Lcurve::new();
    let mut loss = || rng.random_range(0.1..10.0) * 10f64.powi(rng.random_range(-6..3i64) as i32);
    for row in 0..3 {
        curve.push(LcurveRow {
            step: row * 500,
            rmse_e_val: loss(),
            rmse_e_trn: loss(),
            rmse_f_val: loss(),
            rmse_f_trn: loss(),
            lr: loss() * 1e-6,
        });
    }
    curve
}

/// What `text` says, read without the parser: the whitespace-separated
/// tokens of every line that is neither blank nor a comment.
fn tokens(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.split_whitespace().collect())
        .collect()
}

/// An accepted curve has one row per data line, each number the one its
/// token spells.
fn assert_curve_says_what_the_text_says(curve: &Lcurve, text: &str) {
    let lines = tokens(text);
    assert_eq!(curve.rows().len(), lines.len(), "{text}");
    for (row, line) in curve.rows().iter().zip(&lines) {
        assert_eq!(line.len(), 6, "{text}");
        let numbers =
            [row.step as f64, row.rmse_e_val, row.rmse_e_trn, row.rmse_f_val, row.rmse_f_trn, row.lr];
        for (number, token) in numbers.iter().zip(line) {
            let spelled: f64 = token.parse().unwrap_or_else(|_| panic!("accepted {token:?}: {text}"));
            assert!(number.to_bits() == spelled.to_bits() || (number.is_nan() && spelled.is_nan()), "{text}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_prefix_and_every_bit_flip_of_lcurve_is_an_error_or_what_it_says(
        seed in i64::MIN..i64::MAX,
    ) {
        let curve = wild_curve(&mut StdRng::seed_from_u64(seed as u64));
        let text = curve.to_text();
        let whole = Lcurve::parse(&text).unwrap();
        assert_curve_says_what_the_text_says(&whole, &text);

        // A prefix is an error or a whole number of rows — never a row cut
        // inside a number that happens to read as another number.
        for cut in 0..text.len() {
            let prefix = &text[..cut];
            match Lcurve::parse(prefix) {
                Ok(shorter) => {
                    prop_assert_eq!(shorter.rows(), &whole.rows()[..shorter.rows().len()], "prefix {cut}");
                    prop_assert_eq!(shorter.rows().len(), tokens(prefix).len(), "prefix {cut}");
                }
                Err(message) => prop_assert!(message.starts_with("line "), "{message}"),
            }
            // The tolerant reader keeps exactly the complete rows.
            let kept = Lcurve::parse_tolerant(prefix);
            prop_assert_eq!(kept.rows(), &whole.rows()[..kept.rows().len()], "prefix {cut}");
        }

        let mut bytes = text.clone().into_bytes();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                if let Ok(damaged) = std::str::from_utf8(&bytes) {
                    if let Ok(accepted) = Lcurve::parse(damaged) {
                        assert_curve_says_what_the_text_says(&accepted, damaged);
                    }
                    let _ = Lcurve::parse_tolerant(damaged);
                }
                bytes[at] ^= 1 << bit;
            }
        }
    }
}
