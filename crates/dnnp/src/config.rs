//! Training configuration mirroring the DeePMD-kit `input.json` fields the
//! paper tunes, plus the fixed settings of §2.1.2.

use crate::activation::Activation;
use crate::json::Json;

/// Learning-rate scaling scheme for distributed data-parallel training,
/// in the paper's decoding order `{linear, sqrt, none}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LrScaling {
    /// Multiply the learning rate by the worker count (the DeePMD default).
    Linear,
    /// Multiply by √workers.
    Sqrt,
    /// No scaling.
    None,
}

impl LrScaling {
    /// Decode-order list (§2.2.2: `floor(gene) % 3`).
    pub const ALL: [LrScaling; 3] = [LrScaling::Linear, LrScaling::Sqrt, LrScaling::None];

    /// DeePMD-style name.
    pub fn name(&self) -> &'static str {
        match self {
            LrScaling::Linear => "linear",
            LrScaling::Sqrt => "sqrt",
            LrScaling::None => "none",
        }
    }

    /// Inverse of [`LrScaling::name`].
    pub fn from_name(name: &str) -> Option<LrScaling> {
        LrScaling::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The multiplier applied to the learning rate for `workers` workers.
    pub fn factor(&self, workers: usize) -> f64 {
        match self {
            LrScaling::Linear => workers as f64,
            LrScaling::Sqrt => (workers as f64).sqrt(),
            LrScaling::None => 1.0,
        }
    }
}

/// Complete training configuration.
///
/// The first seven fields are the EA-tuned hyperparameters; the rest are
/// the fixed settings of the paper's §2.1.2 (network sizes, loss
/// prefactors) at this reproduction's reduced scale, plus run-control
/// parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Start learning rate (tuned; paper range (3.51e-8, 0.01)).
    pub start_lr: f64,
    /// Stop learning rate (tuned; paper range (3.51e-8, 1e-4)).
    pub stop_lr: f64,
    /// Hard descriptor radial cutoff, Å (tuned; paper range (6, 12)).
    pub rcut: f64,
    /// Switching-function onset radius, Å (tuned; paper range (2, 6)).
    pub rcut_smth: f64,
    /// Learning-rate scaling by worker (tuned; {linear, sqrt, none}).
    pub scale_by_worker: LrScaling,
    /// Descriptor (embedding) network activation (tuned).
    pub desc_activation: Activation,
    /// Fitting network activation (tuned).
    pub fitting_activation: Activation,

    /// Embedding net hidden widths, ending in the descriptor channel count
    /// M (paper: {25, 50, 100}; reduced here).
    pub embedding_neurons: Vec<usize>,
    /// Fitting net hidden widths (paper: {240, 240, 240}; reduced here).
    pub fitting_neurons: Vec<usize>,
    /// Loss prefactors (paper §2.1.2: 0.02, 1000, 1, 1).
    pub start_pref_e: f64,
    /// Force-loss start prefactor.
    pub start_pref_f: f64,
    /// Energy-loss limit prefactor.
    pub limit_pref_e: f64,
    /// Force-loss limit prefactor.
    pub limit_pref_f: f64,

    /// Training steps (paper: 40,000; reduced here).
    pub num_steps: usize,
    /// Frames per worker per step.
    pub batch_per_worker: usize,
    /// Data-parallel worker count (paper: 6 GPUs per Summit node).
    pub n_workers: usize,
    /// Steps between lcurve rows.
    pub disp_freq: usize,
    /// Maximum validation frames evaluated per lcurve row (cost control).
    pub val_max_frames: usize,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            start_lr: 0.001,
            stop_lr: 1e-8,
            rcut: 6.0,
            rcut_smth: 0.5,
            scale_by_worker: LrScaling::Linear,
            desc_activation: Activation::Tanh,
            fitting_activation: Activation::Tanh,
            embedding_neurons: vec![6, 4],
            fitting_neurons: vec![16, 16],
            start_pref_e: 0.02,
            start_pref_f: 1000.0,
            limit_pref_e: 1.0,
            limit_pref_f: 1.0,
            num_steps: 300,
            batch_per_worker: 1,
            n_workers: 6,
            disp_freq: 50,
            val_max_frames: 8,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// The paper's full-scale fixed settings (documented, not run here:
    /// embedding {25,50,100}, fitting {240,240,240}, 40k steps).
    pub fn paper_scale() -> Self {
        TrainConfig {
            embedding_neurons: vec![25, 50, 100],
            fitting_neurons: vec![240, 240, 240],
            num_steps: 40_000,
            ..TrainConfig::default()
        }
    }

    /// Consistency checks; returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.start_lr > 0.0 && self.start_lr.is_finite()) {
            return Err(format!("start_lr {} must be positive", self.start_lr));
        }
        if !(self.stop_lr > 0.0 && self.stop_lr.is_finite()) {
            return Err(format!("stop_lr {} must be positive", self.stop_lr));
        }
        if self.rcut <= 0.0 {
            return Err(format!("rcut {} must be positive", self.rcut));
        }
        if self.rcut_smth >= self.rcut {
            return Err(format!(
                "rcut_smth {} must lie below rcut {}",
                self.rcut_smth, self.rcut
            ));
        }
        // The paper's nets are {25, 50, 100} and {240, 240, 240}; a width or
        // depth orders of magnitude beyond is a damaged input.json, to be
        // refused here and not by the allocator.
        const MAX_LAYERS: usize = 16;
        const MAX_WIDTH: usize = 4096;
        for (net, widths) in
            [("embedding", &self.embedding_neurons), ("fitting", &self.fitting_neurons)]
        {
            if widths.is_empty() || widths.len() > MAX_LAYERS {
                return Err(format!(
                    "{net} net has {} layers; must have 1 to {MAX_LAYERS}",
                    widths.len()
                ));
            }
            if let Some(width) = widths.iter().find(|&&w| w == 0 || w > MAX_WIDTH) {
                return Err(format!(
                    "{net} net layer width {width} must lie in 1..={MAX_WIDTH}"
                ));
            }
        }
        if self.num_steps == 0 || self.n_workers == 0 || self.batch_per_worker == 0 {
            return Err("steps, workers, and batch must be positive".into());
        }
        Ok(())
    }

    /// Stable 64-bit fingerprint of this configuration, via the canonical
    /// `input.json` rendering. Two configs hash equal iff they would write
    /// identical `input.json` artifacts; the experiment journal uses this
    /// to reject resumption under a changed campaign configuration.
    pub fn config_hash(&self) -> u64 {
        self.to_input_json().stable_hash()
    }

    /// Serialise to a DeePMD-shaped `input.json` document.
    pub fn to_input_json(&self) -> Json {
        let neurons = |ns: &[usize]| {
            Json::Array(ns.iter().map(|&n| Json::Number(n as f64)).collect())
        };
        Json::object(vec![
            (
                "model",
                Json::object(vec![
                    (
                        "descriptor",
                        Json::object(vec![
                            ("type", Json::String("se_e2_r".into())),
                            ("rcut", Json::Number(self.rcut)),
                            ("rcut_smth", Json::Number(self.rcut_smth)),
                            ("neuron", neurons(&self.embedding_neurons)),
                            (
                                "activation_function",
                                Json::String(self.desc_activation.name().into()),
                            ),
                        ]),
                    ),
                    (
                        "fitting_net",
                        Json::object(vec![
                            ("neuron", neurons(&self.fitting_neurons)),
                            (
                                "activation_function",
                                Json::String(self.fitting_activation.name().into()),
                            ),
                        ]),
                    ),
                ]),
            ),
            (
                "learning_rate",
                Json::object(vec![
                    ("type", Json::String("exp".into())),
                    ("start_lr", Json::Number(self.start_lr)),
                    ("stop_lr", Json::Number(self.stop_lr)),
                    (
                        "scale_by_worker",
                        Json::String(self.scale_by_worker.name().into()),
                    ),
                ]),
            ),
            (
                "loss",
                Json::object(vec![
                    ("start_pref_e", Json::Number(self.start_pref_e)),
                    ("limit_pref_e", Json::Number(self.limit_pref_e)),
                    ("start_pref_f", Json::Number(self.start_pref_f)),
                    ("limit_pref_f", Json::Number(self.limit_pref_f)),
                ]),
            ),
            (
                "training",
                Json::object(vec![
                    ("numb_steps", Json::Number(self.num_steps as f64)),
                    ("batch_size", Json::Number(self.batch_per_worker as f64)),
                    ("n_workers", Json::Number(self.n_workers as f64)),
                    ("disp_freq", Json::Number(self.disp_freq as f64)),
                    ("val_max_frames", Json::Number(self.val_max_frames as f64)),
                    ("seed", Json::Number(self.seed as f64)),
                ]),
            ),
        ])
    }

    /// Parse a configuration back from an `input.json` document (the
    /// inverse of [`TrainConfig::to_input_json`], used by the evaluation
    /// workflow after template substitution). The configuration is what the
    /// document says or an error: a count that is negative, fractional or
    /// beyond `u64` is refused, never rounded into range.
    pub fn from_input_json(doc: &Json) -> Result<TrainConfig, String> {
        let num = |path: &[&str]| -> Result<f64, String> {
            doc.at(path)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field {}", path.join(".")))
        };
        let text = |path: &[&str]| -> Result<String, String> {
            doc.at(path)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {}", path.join(".")))
        };
        // Every whole number below 2^64 is a `u64` exactly, and 2^64 itself —
        // what a seed within 2^10 of `u64::MAX` reads back as — saturates to
        // `u64::MAX`: the casts behind this check lose nothing else.
        let count = |v: f64, path: &[&str]| -> Result<u64, String> {
            if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
                Ok(v as u64)
            } else {
                Err(format!("field {} is not a non-negative integer: {v}", path.join(".")))
            }
        };
        let whole = |path: &[&str]| -> Result<u64, String> { count(num(path)?, path) };
        let neuron_list = |path: &[&str]| -> Result<Vec<usize>, String> {
            match doc.at(path) {
                Some(Json::Array(items)) => items
                    .iter()
                    .map(|v| {
                        let width = v
                            .as_f64()
                            .ok_or_else(|| format!("bad neuron entry in {}", path.join(".")))?;
                        Ok(count(width, path)? as usize)
                    })
                    .collect(),
                _ => Err(format!("missing array {}", path.join("."))),
            }
        };

        let desc_name = text(&["model", "descriptor", "activation_function"])?;
        let fit_name = text(&["model", "fitting_net", "activation_function"])?;
        let scale_name = text(&["learning_rate", "scale_by_worker"])?;
        let config = TrainConfig {
            start_lr: num(&["learning_rate", "start_lr"])?,
            stop_lr: num(&["learning_rate", "stop_lr"])?,
            rcut: num(&["model", "descriptor", "rcut"])?,
            rcut_smth: num(&["model", "descriptor", "rcut_smth"])?,
            scale_by_worker: LrScaling::from_name(&scale_name)
                .ok_or_else(|| format!("unknown scale_by_worker '{scale_name}'"))?,
            desc_activation: Activation::from_name(&desc_name)
                .ok_or_else(|| format!("unknown activation '{desc_name}'"))?,
            fitting_activation: Activation::from_name(&fit_name)
                .ok_or_else(|| format!("unknown activation '{fit_name}'"))?,
            embedding_neurons: neuron_list(&["model", "descriptor", "neuron"])?,
            fitting_neurons: neuron_list(&["model", "fitting_net", "neuron"])?,
            start_pref_e: num(&["loss", "start_pref_e"])?,
            start_pref_f: num(&["loss", "start_pref_f"])?,
            limit_pref_e: num(&["loss", "limit_pref_e"])?,
            limit_pref_f: num(&["loss", "limit_pref_f"])?,
            num_steps: whole(&["training", "numb_steps"])? as usize,
            batch_per_worker: whole(&["training", "batch_size"])? as usize,
            n_workers: whole(&["training", "n_workers"])? as usize,
            disp_freq: whole(&["training", "disp_freq"])? as usize,
            val_max_frames: whole(&["training", "val_max_frames"])? as usize,
            seed: whole(&["training", "seed"])?,
        };
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_factors() {
        assert_eq!(LrScaling::Linear.factor(6), 6.0);
        assert!((LrScaling::Sqrt.factor(6) - 6f64.sqrt()).abs() < 1e-12);
        assert_eq!(LrScaling::None.factor(6), 1.0);
        assert_eq!(LrScaling::Linear.factor(1), 1.0);
    }

    #[test]
    fn scaling_names_round_trip() {
        for s in LrScaling::ALL {
            assert_eq!(LrScaling::from_name(s.name()), Some(s));
        }
        assert_eq!(LrScaling::from_name("exp"), None);
    }

    #[test]
    fn default_config_is_valid_except_paper_default_smoothing() {
        // The DeePMD default rcut_smth = 0.5 is valid (just below rcut).
        assert!(TrainConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_inverted_cutoffs() {
        let config = TrainConfig { rcut: 6.0, rcut_smth: 7.0, ..TrainConfig::default() };
        assert!(config.validate().unwrap_err().contains("rcut_smth"));
    }

    #[test]
    fn validation_catches_bad_lr() {
        let config = TrainConfig { start_lr: 0.0, ..TrainConfig::default() };
        assert!(config.validate().is_err());
        let config = TrainConfig { stop_lr: -1.0, ..TrainConfig::default() };
        assert!(config.validate().is_err());
    }

    #[test]
    fn input_json_round_trips() {
        let config = TrainConfig {
            start_lr: 0.0047,
            stop_lr: 1e-4,
            rcut: 11.32,
            rcut_smth: 2.42,
            scale_by_worker: LrScaling::None,
            desc_activation: Activation::Tanh,
            fitting_activation: Activation::Softplus,
            seed: 42,
            ..TrainConfig::default()
        };
        let doc = config.to_input_json();
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        let restored = TrainConfig::from_input_json(&parsed).unwrap();
        assert_eq!(restored, config);
    }

    #[test]
    fn paper_scale_matches_published_settings() {
        let c = TrainConfig::paper_scale();
        assert_eq!(c.embedding_neurons, vec![25, 50, 100]);
        assert_eq!(c.fitting_neurons, vec![240, 240, 240]);
        assert_eq!(c.num_steps, 40_000);
        assert_eq!(c.start_pref_e, 0.02);
        assert_eq!(c.start_pref_f, 1000.0);
        assert_eq!(c.limit_pref_e, 1.0);
        assert_eq!(c.limit_pref_f, 1.0);
        assert_eq!(c.n_workers, 6);
    }

    #[test]
    fn from_input_json_reports_missing_fields() {
        let doc = Json::parse(r#"{"model": {}}"#).unwrap();
        let err = TrainConfig::from_input_json(&doc).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }
}
