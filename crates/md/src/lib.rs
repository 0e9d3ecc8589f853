//! # dphpo-md
//!
//! Synthetic first-principles molecular dynamics substrate.
//!
//! The paper trains its neural-network potential on a 250k-frame CP2K DFT
//! trajectory of molten 66.7 % AlCl₃ / 33.3 % KCl (160 atoms, 17.84 Å box,
//! 498 K). That data is unavailable here, so this crate generates the
//! closest synthetic equivalent: a Born–Mayer–Huggins + screened-Coulomb
//! ionic melt simulated with a BAOAB Langevin thermostat, sampled into
//! labelled (positions → energy, forces) frames with a configurable
//! DFT-like label-noise floor, shuffled, and split 75/25 into train and
//! validation sets exactly as the paper's in-house scripts did.
//!
//! See DESIGN.md §2 for the full substitution argument.
//!
//! ```
//! use dphpo_md::generate::{generate_dataset, GenConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut config = GenConfig::tiny();
//! config.n_frames = 4;
//! let dataset = generate_dataset(&config, &mut rng);
//! let (train, val) = dataset.split(0.25, &mut rng);
//! assert_eq!(train.n_frames(), 3);
//! assert_eq!(val.n_frames(), 1);
//! ```

pub mod analysis;
pub mod cell;
pub mod generate;
pub mod integrate;
pub mod neighbors;
pub mod potential;

pub use cell::Cell;
pub use generate::{generate_dataset, Dataset, Frame, Frames, GenConfig, LABEL_NOISE};
pub use integrate::MdState;
pub use neighbors::{pairs_brute_force, pairs_cell_list, Pair, PairTable};
pub use analysis::{mean_squared_displacement, partial_rdf, Rdf};
pub use potential::{melt_composition, shuffled_composition, MeltPotential, Species, KB_EV};
