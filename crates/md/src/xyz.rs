//! Extended-XYZ trajectory I/O: the lingua franca for inspecting
//! molecular-dynamics output in standard viewers (OVITO, VMD, ASE). Each
//! frame carries the cell, energy, and per-atom forces in the comment-line
//! key/value convention.

use std::fmt::Write as _;

use crate::cell::Cell;
use crate::generate::{Dataset, Frame};
use crate::potential::Species;

fn species_symbol(s: Species) -> &'static str {
    match s {
        Species::Al => "Al",
        Species::K => "K",
        Species::Cl => "Cl",
    }
}

fn species_from_symbol(sym: &str) -> Option<Species> {
    match sym {
        "Al" => Some(Species::Al),
        "K" => Some(Species::K),
        "Cl" => Some(Species::Cl),
        _ => None,
    }
}

/// Render a dataset as extended-XYZ text (all frames concatenated).
pub fn to_extxyz(dataset: &Dataset) -> String {
    let mut out = String::new();
    let l = dataset.cell.length();
    for frame in &dataset.frames {
        let _ = writeln!(out, "{}", dataset.n_atoms());
        let _ = writeln!(
            out,
            "Lattice=\"{l} 0.0 0.0 0.0 {l} 0.0 0.0 0.0 {l}\" \
             Properties=species:S:1:pos:R:3:forces:R:3 energy={:.10}",
            frame.energy
        );
        for (s, (p, f)) in dataset
            .species
            .iter()
            .zip(frame.positions.iter().zip(frame.forces.iter()))
        {
            let _ = writeln!(
                out,
                "{} {:.8} {:.8} {:.8} {:.8} {:.8} {:.8}",
                species_symbol(*s),
                p[0],
                p[1],
                p[2],
                f[0],
                f[1],
                f[2]
            );
        }
    }
    out
}

/// Parse extended-XYZ text produced by [`to_extxyz`].
pub fn from_extxyz(text: &str) -> Result<Dataset, String> {
    let mut lines = text.lines().peekable();
    let mut species: Option<Vec<Species>> = None;
    let mut cell: Option<Cell> = None;
    let mut frames = Vec::new();

    while let Some(count_line) = lines.next() {
        let count_line = count_line.trim();
        if count_line.is_empty() {
            continue;
        }
        let n: usize = count_line
            .parse()
            .map_err(|_| format!("bad atom count '{count_line}'"))?;
        let header = lines.next().ok_or("missing comment line")?;

        // Cell from Lattice="lx 0 0 0 ly 0 0 0 lz".
        let lattice = header
            .split("Lattice=\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .ok_or("missing Lattice")?;
        let entries: Vec<f64> = lattice
            .split_whitespace()
            .map(|v| v.parse::<f64>().map_err(|_| format!("bad lattice entry '{v}'")))
            .collect::<Result<_, _>>()?;
        if entries.len() != 9 {
            return Err("lattice must have 9 entries".into());
        }
        let this_cell = Cell::cubic(entries[0]);
        if let Some(c) = cell {
            if (c.length() - this_cell.length()).abs() > 1e-9 {
                return Err("mixed cells unsupported".into());
            }
        }
        cell = Some(this_cell);

        let energy: f64 = header
            .split("energy=")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or("missing energy")?
            .parse()
            .map_err(|_| "bad energy value".to_string())?;

        let mut frame_species = Vec::with_capacity(n);
        let mut positions = Vec::with_capacity(n);
        let mut forces = Vec::with_capacity(n);
        for _ in 0..n {
            let line = lines.next().ok_or("truncated frame")?;
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 7 {
                return Err(format!("expected 7 columns, got {}", fields.len()));
            }
            frame_species.push(
                species_from_symbol(fields[0])
                    .ok_or_else(|| format!("unknown species '{}'", fields[0]))?,
            );
            let mut nums = [0.0f64; 6];
            for (k, v) in fields[1..].iter().enumerate() {
                nums[k] = v.parse().map_err(|_| format!("bad number '{v}'"))?;
            }
            positions.push([nums[0], nums[1], nums[2]]);
            forces.push([nums[3], nums[4], nums[5]]);
        }
        match &species {
            None => species = Some(frame_species),
            Some(existing) => {
                if *existing != frame_species {
                    return Err("species changed between frames".into());
                }
            }
        }
        frames.push(Frame { positions, energy, forces });
    }

    Ok(Dataset {
        cell: cell.ok_or("no frames found")?,
        species: species.unwrap_or_default(),
        frames: frames.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_dataset, GenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn extxyz_round_trips() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut gen = GenConfig::tiny();
        gen.n_frames = 3;
        let ds = generate_dataset(&gen, &mut rng);
        let text = to_extxyz(&ds);
        let back = from_extxyz(&text).unwrap();
        assert_eq!(back.species, ds.species);
        assert_eq!(back.n_frames(), 3);
        assert!((back.cell.length() - ds.cell.length()).abs() < 1e-9);
        for (a, b) in back.frames.iter().zip(ds.frames.iter()) {
            assert!((a.energy - b.energy).abs() < 1e-9);
            for (pa, pb) in a.positions.iter().zip(b.positions.iter()) {
                for k in 0..3 {
                    assert!((pa[k] - pb[k]).abs() < 1e-7);
                }
            }
        }
    }

    #[test]
    fn frame_shape_is_viewer_compatible() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut gen = GenConfig::tiny();
        gen.n_frames = 1;
        gen.n_atoms = 10;
        let ds = generate_dataset(&gen, &mut rng);
        let text = to_extxyz(&ds);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0].trim(), "10");
        assert!(lines[1].contains("Lattice="));
        assert!(lines[1].contains("Properties=species:S:1:pos:R:3:forces:R:3"));
        assert_eq!(lines.len(), 12); // count + comment + 10 atoms
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(from_extxyz("not a number\n").is_err());
        assert!(from_extxyz("2\nmissing lattice line\nAl 0 0 0 0 0 0\n").is_err());
        assert!(from_extxyz("").is_err());
        // Truncated atom block.
        let text = "2\nLattice=\"5 0 0 0 5 0 0 0 5\" energy=1.0\nAl 0 0 0 0 0 0\n";
        assert!(from_extxyz(text).is_err());
    }
}
