//! No byte of `campaign_status.json` panics its reader or turns into a
//! status other than the one the bytes spell out.
//!
//! The `dnnp/tests/input_readers.rs` pattern applied to [`parse_status`],
//! over the status document of a small faulty campaign: every proper
//! prefix, every single-bit flip, and every leaf removed or replaced by a
//! value of the wrong kind. Each outcome is `Ok` or a structured error,
//! never a panic. An accepted document is checked against what it says,
//! independently of the reader: the accepted status, rendered back, is the
//! same JSON value as the document. A row, schema or reference point the
//! writer cannot emit is refused with its key named.

use std::path::Path;
use std::sync::OnceLock;

use dphpo_core::campaign_report::{parse_status, status_json};
use dphpo_core::experiment::{Campaign, ExperimentConfig};
use dphpo_dnnp::Json;

/// The status document of a smoke campaign with worker deaths, retries and
/// backoff, so that every counter of a row is exercised.
fn document() -> &'static str {
    static DOCUMENT: OnceLock<String> = OnceLock::new();
    DOCUMENT.get_or_init(|| {
        let mut config = ExperimentConfig::smoke();
        config.fault_probability = 0.2;
        config.pool.nanny = true;
        config.pool.max_attempts = 2;
        let result = Campaign::new(&config).run(None).expect("smoke campaign");
        status_json(&result.status)
    })
}

/// Read `text` as tooling does. A panic anywhere fails the test by itself;
/// an accepted document must say what the accepted status says.
fn read(text: &str) -> Result<(), String> {
    let status = parse_status(text)?;
    let says = Json::parse(text).expect("an accepted status document is JSON");
    assert_eq!(Json::parse(&status_json(&status)).unwrap(), says, "{text}");
    Ok(())
}

/// One step of a path into a document.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

/// The path of every leaf (a value that is not an object or an array).
fn leaves(doc: &Json, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match doc {
        Json::Object(members) => {
            for (key, value) in members {
                path.push(Step::Key(key.clone()));
                leaves(value, path, out);
                path.pop();
            }
        }
        Json::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Step::Index(i));
                leaves(item, path, out);
                path.pop();
            }
        }
        _ => out.push(path.clone()),
    }
}

/// `doc` with the value at `path` replaced (`Some`) or removed (`None`).
fn edited(doc: &Json, path: &[Step], replacement: Option<&Json>) -> Json {
    let Some((step, rest)) = path.split_first() else {
        return replacement.cloned().expect("a removal is made at its parent");
    };
    match (doc, step) {
        (Json::Object(members), Step::Key(key)) => Json::Object(
            members
                .iter()
                .filter_map(|(k, v)| match (k == key, rest.is_empty(), replacement) {
                    (false, _, _) => Some((k.clone(), v.clone())),
                    (true, true, None) => None,
                    (true, _, _) => Some((k.clone(), edited(v, rest, replacement))),
                })
                .collect(),
        ),
        (Json::Array(items), Step::Index(at)) => Json::Array(
            items
                .iter()
                .enumerate()
                .filter_map(|(i, v)| match (i == *at, rest.is_empty(), replacement) {
                    (false, _, _) => Some(v.clone()),
                    (true, true, None) => None,
                    (true, _, _) => Some(edited(v, rest, replacement)),
                })
                .collect(),
        ),
        _ => panic!("{path:?} runs through a leaf"),
    }
}

#[test]
fn the_checked_in_status_files_read_back_byte_for_byte() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in ["campaign_status.json", "steady_campaign_status.json"] {
        let text = std::fs::read_to_string(results.join(name)).expect("checked-in status file");
        let status = parse_status(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(status_json(&status), text, "{name}");
    }
}

#[test]
fn every_prefix_and_every_bit_flip_of_the_status_is_an_error_or_what_it_says() {
    let text = document();
    read(text).unwrap();
    let trimmed = text.trim_end();
    for cut in 0..trimmed.len() {
        assert!(parse_status(&trimmed[..cut]).is_err(), "prefix {cut} of {trimmed}");
    }
    let mut bytes = text.as_bytes().to_vec();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            bytes[at] ^= 1 << bit;
            if let Ok(damaged) = std::str::from_utf8(&bytes) {
                // The check is inside: an accepted document must be read for
                // what it now says.
                let _ = read(damaged);
            }
            bytes[at] ^= 1 << bit;
        }
    }
}

#[test]
fn every_leaf_removed_or_of_the_wrong_kind_is_refused_or_read_for_what_it_says() {
    let doc = Json::parse(document()).unwrap();
    let mut paths = Vec::new();
    leaves(&doc, &mut Vec::new(), &mut paths);
    assert!(paths.len() > 80, "{} leaves", paths.len());
    let wrong_kinds = [
        Json::Null,
        Json::Bool(true),
        Json::String("7".into()),
        Json::Array(Vec::new()),
        Json::Array(vec![Json::Number(1.0)]),
        Json::Object(Default::default()),
        Json::Number(-1.0),
        Json::Number(0.5),
        Json::Number(-0.0),
        Json::Number(1e300),
        Json::Number(18_446_744_073_709_551_616.0),
    ];
    for path in &paths {
        let err = parse_status(&edited(&doc, path, None).to_string()).unwrap_err();
        if let Some(Step::Key(key)) = path.last() {
            assert!(err.contains(&format!("'{key}'")), "{path:?}: {err}");
        }
        for wrong in &wrong_kinds {
            let _ = read(&edited(&doc, path, Some(wrong)).to_string());
        }
    }
    // What the writer cannot emit is refused by name, not read as zero: a
    // row that is not an object, a row short of a field, a negative or a
    // fractional count, a foreign schema, a malformed reference point.
    let key = |k: &str| vec![Step::Key(k.into())];
    let row = |field: Option<&str>| {
        let mut path = key("runs");
        path.extend([Step::Index(0), Step::Key("generations".into()), Step::Index(0)]);
        path.extend(field.map(key).into_iter().flatten());
        path
    };
    let cases = [
        (row(None), Some(Json::Number(5.0)), "'generations'"),
        (row(Some("hypervolume")), None, "missing field 'hypervolume'"),
        (row(Some("deaths")), Some(Json::Number(-4.0)), "'deaths'"),
        (row(Some("evicted")), Some(Json::Number(0.5)), "'evicted'"),
        (key("n_runs"), Some(Json::Number(-1.0)), "'n_runs'"),
        (key("schema"), Some(Json::String("dphpo-campaign-status-v0".into())), "schema"),
        (key("reference_point"), Some(Json::Array(vec![Json::Number(0.03)])), "'reference_point'"),
        (key("reference_point"), Some(Json::Number(0.6)), "'reference_point'"),
    ];
    for (path, replacement, names) in cases {
        let damaged = edited(&doc, &path, replacement.as_ref()).to_string();
        let err = parse_status(&damaged).expect_err(names);
        assert!(err.contains(names), "{path:?}: {err}");
    }
}
