//! Saving and loading profiles in a line-oriented text format.
//!
//! Profiling is the framework's only expensive step (`A` runs per
//! process), so a deployment profiles once and reuses the result. This
//! module persists [`ProcessProfile`]s (and bare [`FeatureVector`]s) in a
//! human-auditable `key value...` format:
//!
//! ```text
//! # mpmc profile v1
//! name mcf
//! assoc 16
//! api 0.0348
//! alpha 3.245e-10
//! beta 4.583e-11
//! hist 0.0751 0.0698 0.0649 ...
//! p_inf 0.2513
//! l1rpi 0.42
//! l2rpi 0.0348
//! brpi 0.24
//! fppi 0
//! processor_alone_w 52.04
//! idle_processor_w 44.42
//! ```
//!
//! Blank lines and `#` comments are ignored; unknown keys are rejected so
//! silent format drift cannot hide.

use crate::feature::FeatureVector;
use crate::histogram::ReuseHistogram;
use crate::profile::ProcessProfile;
use crate::spi::SpiModel;
use crate::ModelError;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};

/// Format version written in the header.
pub const FORMAT_VERSION: u32 = 1;

/// Writes a full [`ProcessProfile`] to `w`. A mutable reference to a
/// writer also works (`&mut w`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_profile<W: Write>(profile: &ProcessProfile, mut w: W) -> std::io::Result<()> {
    write_feature_body(&profile.feature, &mut w)?;
    writeln!(w, "l1rpi {}", profile.l1rpi)?;
    writeln!(w, "l2rpi {}", profile.l2rpi)?;
    writeln!(w, "brpi {}", profile.brpi)?;
    writeln!(w, "fppi {}", profile.fppi)?;
    writeln!(w, "processor_alone_w {}", profile.processor_alone_w)?;
    writeln!(w, "idle_processor_w {}", profile.idle_processor_w)?;
    Ok(())
}

/// Writes a bare [`FeatureVector`] to `w` (performance model only).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_feature<W: Write>(feature: &FeatureVector, mut w: W) -> std::io::Result<()> {
    write_feature_body(feature, &mut w)
}

fn write_feature_body<W: Write>(feature: &FeatureVector, w: &mut W) -> std::io::Result<()> {
    writeln!(w, "# mpmc profile v{FORMAT_VERSION}")?;
    writeln!(w, "name {}", feature.name())?;
    writeln!(w, "assoc {}", feature.assoc())?;
    writeln!(w, "api {}", feature.api())?;
    writeln!(w, "alpha {}", feature.spi_model().alpha())?;
    writeln!(w, "beta {}", feature.spi_model().beta())?;
    write!(w, "hist")?;
    for p in feature.histogram().probs() {
        write!(w, " {p}")?;
    }
    writeln!(w)?;
    writeln!(w, "p_inf {}", feature.histogram().p_inf())?;
    Ok(())
}

/// Reads a full [`ProcessProfile`] written by [`write_profile`].
///
/// The histogram masses must sum to 1 within 1e-6 and are kept as
/// written, so a profile read back from its file has the bits, and the
/// content fingerprint, of the one that was written.
///
/// # Errors
///
/// - [`ModelError::UnusableProfile`] for malformed input, missing keys,
///   or unknown keys.
/// - Construction errors if the stored values are out of domain.
pub fn read_profile<R: Read>(r: R) -> Result<ProcessProfile, ModelError> {
    let fields = parse_fields(r)?;
    let feature = feature_from_fields(&fields)?;
    let profile = ProcessProfile {
        feature,
        l1rpi: field_f64(&fields, "l1rpi")?,
        l2rpi: field_f64(&fields, "l2rpi")?,
        brpi: field_f64(&fields, "brpi")?,
        fppi: field_f64(&fields, "fppi")?,
        processor_alone_w: field_f64(&fields, "processor_alone_w")?,
        idle_processor_w: field_f64(&fields, "idle_processor_w")?,
    };
    crate::validate::profile(&profile)?;
    Ok(profile)
}

/// Reads a bare [`FeatureVector`] written by [`write_feature`].
///
/// # Errors
///
/// As for [`read_profile`].
pub fn read_feature<R: Read>(r: R) -> Result<FeatureVector, ModelError> {
    let fields = parse_fields(r)?;
    // Power-profile keys may be present (a full profile is a superset);
    // they are simply ignored here.
    let feature = feature_from_fields(&fields)?;
    crate::validate::feature_vector(&feature)?;
    Ok(feature)
}

const FEATURE_KEYS: [&str; 7] = ["name", "assoc", "api", "alpha", "beta", "hist", "p_inf"];
const PROFILE_KEYS: [&str; 6] =
    ["l1rpi", "l2rpi", "brpi", "fppi", "processor_alone_w", "idle_processor_w"];

fn parse_fields<R: Read>(r: R) -> Result<BTreeMap<String, String>, ModelError> {
    let mut fields = BTreeMap::new();
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line.map_err(|e| ModelError::UnusableProfile(format!("read error: {e}")))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(' ').ok_or_else(|| {
            ModelError::UnusableProfile(format!("line {}: expected 'key value'", lineno + 1))
        })?;
        if !FEATURE_KEYS.contains(&key) && !PROFILE_KEYS.contains(&key) {
            return Err(ModelError::UnusableProfile(format!(
                "line {}: unknown key '{key}'",
                lineno + 1
            )));
        }
        if fields.insert(key.to_string(), value.trim().to_string()).is_some() {
            return Err(ModelError::UnusableProfile(format!(
                "line {}: duplicate key '{key}'",
                lineno + 1
            )));
        }
    }
    Ok(fields)
}

fn feature_from_fields(fields: &BTreeMap<String, String>) -> Result<FeatureVector, ModelError> {
    let name =
        fields.get("name").ok_or(ModelError::UnusableProfile("missing key 'name'".into()))?.clone();
    let assoc_raw =
        fields.get("assoc").ok_or(ModelError::UnusableProfile("missing key 'assoc'".into()))?;
    // Associativity is a count: parse as an integer rather than truncating
    // a float, so "16.7", "-2", and "1e3" are rejected loudly.
    let assoc = assoc_raw.parse::<usize>().map_err(|_| {
        ModelError::UnusableProfile(format!(
            "bad value for 'assoc': '{assoc_raw}' (want a positive integer)"
        ))
    })?;
    if assoc == 0 || assoc > 4096 {
        return Err(ModelError::UnusableProfile(format!(
            "assoc {assoc} outside supported range 1..=4096"
        )));
    }
    let api = field_f64(fields, "api")?;
    let alpha = field_f64(fields, "alpha")?;
    let beta = field_f64(fields, "beta")?;
    let p_inf = field_f64(fields, "p_inf")?;
    let hist_raw =
        fields.get("hist").ok_or(ModelError::UnusableProfile("missing key 'hist'".into()))?;
    let probs: Vec<f64> = hist_raw
        .split_whitespace()
        .map(|tok| {
            tok.parse::<f64>()
                .map_err(|_| ModelError::UnusableProfile(format!("bad hist value '{tok}'")))
        })
        .collect::<Result<_, _>>()?;
    // Kept as written: renormalizing would move the last bits of masses
    // that were normalized when written, and with them the fingerprint.
    let hist = ReuseHistogram::from_stored(probs, p_inf)?;
    let spi = SpiModel::new(alpha, beta)?;
    FeatureVector::new(name, hist, api, spi, assoc)
}

fn field_f64(fields: &BTreeMap<String, String>, key: &str) -> Result<f64, ModelError> {
    let raw = fields
        .get(key)
        .ok_or_else(|| ModelError::UnusableProfile(format!("missing key '{key}'")))?;
    let v = raw
        .parse::<f64>()
        .map_err(|_| ModelError::UnusableProfile(format!("bad value for '{key}': '{raw}'")))?;
    // `f64::from_str` happily accepts "NaN" and "inf"; a profile carrying
    // them would poison every solver downstream.
    if !v.is_finite() {
        return Err(ModelError::UnusableProfile(format!("non-finite value for '{key}': '{raw}'")));
    }
    Ok(v)
}

/// Writes a fitted Eq. 9 power model (intercept + five coefficients).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_power_model<W: Write>(
    model: &crate::power::PowerModel,
    mut w: W,
) -> std::io::Result<()> {
    writeln!(w, "# mpmc power model v{FORMAT_VERSION}")?;
    writeln!(w, "idle_core_w {}", crate::power::CorePowerModel::idle_core_watts(model))?;
    write!(w, "coefficients")?;
    for c in model.coefficients() {
        write!(w, " {c}")?;
    }
    writeln!(w)?;
    Ok(())
}

/// Reads a power model written by [`write_power_model`].
///
/// # Errors
///
/// [`ModelError::UnusableProfile`] for malformed input; construction
/// errors for out-of-domain values.
pub fn read_power_model<R: Read>(r: R) -> Result<crate::power::PowerModel, ModelError> {
    let mut idle = None;
    let mut coeffs = None;
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line.map_err(|e| ModelError::UnusableProfile(format!("read error: {e}")))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(' ').ok_or_else(|| {
            ModelError::UnusableProfile(format!("line {}: expected 'key value'", lineno + 1))
        })?;
        match key {
            "idle_core_w" => {
                idle = Some(value.trim().parse::<f64>().map_err(|_| {
                    ModelError::UnusableProfile(format!("bad idle_core_w '{value}'"))
                })?);
            }
            "coefficients" => {
                coeffs = Some(
                    value
                        .split_whitespace()
                        .map(|tok| {
                            tok.parse::<f64>().map_err(|_| {
                                ModelError::UnusableProfile(format!("bad coefficient '{tok}'"))
                            })
                        })
                        .collect::<Result<Vec<f64>, _>>()?,
                );
            }
            other => {
                return Err(ModelError::UnusableProfile(format!(
                    "line {}: unknown key '{other}'",
                    lineno + 1
                )));
            }
        }
    }
    let idle = idle.ok_or(ModelError::UnusableProfile("missing key 'idle_core_w'".into()))?;
    let coeffs = coeffs.ok_or(ModelError::UnusableProfile("missing key 'coefficients'".into()))?;
    crate::power::PowerModel::from_parts(idle, coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::machine::MachineConfig;
    use workloads::spec::SpecWorkload;

    fn sample_profile() -> ProcessProfile {
        let machine = MachineConfig::four_core_server();
        let feature = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &machine).unwrap();
        ProcessProfile {
            feature,
            l1rpi: 0.42,
            l2rpi: 0.0348,
            brpi: 0.24,
            fppi: 0.0,
            processor_alone_w: 52.04,
            idle_processor_w: 44.42,
        }
    }

    #[test]
    fn profile_roundtrip() {
        let profile = sample_profile();
        let mut buf = Vec::new();
        write_profile(&profile, &mut buf).unwrap();
        let back = read_profile(buf.as_slice()).unwrap();
        assert_eq!(back.feature.name(), "mcf");
        assert_eq!(back.feature.assoc(), 16);
        assert!((back.feature.api() - profile.feature.api()).abs() < 1e-15);
        assert!((back.l1rpi - 0.42).abs() < 1e-15);
        assert!((back.processor_alone_w - 52.04).abs() < 1e-12);
        // Histogram identical at every integer size.
        for s in 0..=16 {
            assert!(
                (back.feature.mpa(s as f64) - profile.feature.mpa(s as f64)).abs() < 1e-12,
                "s={s}"
            );
        }
    }

    #[test]
    fn feature_roundtrip_and_subset_read() {
        let profile = sample_profile();
        let mut buf = Vec::new();
        write_profile(&profile, &mut buf).unwrap();
        // A full profile parses as a bare feature too.
        let fv = read_feature(buf.as_slice()).unwrap();
        assert_eq!(fv.name(), "mcf");

        let mut buf = Vec::new();
        write_feature(&profile.feature, &mut buf).unwrap();
        let fv = read_feature(buf.as_slice()).unwrap();
        assert!((fv.spi_model().alpha() - profile.feature.spi_model().alpha()).abs() < 1e-20);
    }

    #[test]
    fn feature_only_file_fails_as_profile() {
        let profile = sample_profile();
        let mut buf = Vec::new();
        write_feature(&profile.feature, &mut buf).unwrap();
        assert!(read_profile(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_unknown_and_duplicate_keys() {
        let text = "name x\nbogus 1\n";
        assert!(matches!(read_feature(text.as_bytes()), Err(ModelError::UnusableProfile(_))));
        let text = "name x\nname y\n";
        assert!(read_feature(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_malformed_values() {
        let profile = sample_profile();
        let mut buf = Vec::new();
        write_profile(&profile, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let broken = text.replace("api ", "api x");
        assert!(read_profile(broken.as_bytes()).is_err());
        let broken = text.replace("p_inf", "# p_inf");
        assert!(read_profile(broken.as_bytes()).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let profile = sample_profile();
        let mut buf = Vec::new();
        write_profile(&profile, &mut buf).unwrap();
        let text =
            format!("# leading comment\n\n{}\n# trailing\n", String::from_utf8(buf).unwrap());
        assert!(read_profile(text.as_bytes()).is_ok());
    }

    #[test]
    fn out_of_domain_values_rejected() {
        let profile = sample_profile();
        let mut buf = Vec::new();
        write_profile(&profile, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Negative beta is unphysical.
        let broken = regex_like_replace(&text, "beta ", "beta -");
        assert!(read_profile(broken.as_bytes()).is_err());
    }

    fn regex_like_replace(text: &str, prefix: &str, with: &str) -> String {
        text.replacen(prefix, with, 1)
    }

    #[test]
    fn rejects_non_finite_and_fractional_fields() {
        let profile = sample_profile();
        let mut buf = Vec::new();
        write_profile(&profile, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        // "NaN"/"inf" parse as f64 but must not survive into the model.
        let api_line = text.lines().find(|l| l.starts_with("api ")).unwrap().to_string();
        for bad in ["api NaN", "api inf", "api -inf"] {
            let broken = text.replace(&api_line, bad);
            let err = read_profile(broken.as_bytes()).unwrap_err();
            assert!(matches!(err, ModelError::UnusableProfile(_)), "{bad}: {err}");
        }

        // Associativity must be a positive integer.
        for bad in ["assoc 16.7", "assoc -2", "assoc 0", "assoc 1e3", "assoc 9999999"] {
            let broken = text.replace("assoc 16", bad);
            assert!(read_profile(broken.as_bytes()).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_non_finite_rate_fields() {
        let profile = sample_profile();
        let mut buf = Vec::new();
        write_profile(&profile, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let broken = text.replace("l1rpi 0.42", "l1rpi NaN");
        assert!(read_profile(broken.as_bytes()).is_err());
        let broken = text.replace("fppi 0", "fppi -1");
        assert!(read_profile(broken.as_bytes()).is_err(), "negative rate");
    }

    #[test]
    fn truncated_file_is_typed_error() {
        let profile = sample_profile();
        let mut buf = Vec::new();
        write_profile(&profile, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Drop trailing lines: every prefix is missing at least one key.
        for keep in 1..lines.len() {
            let cut = lines[..keep].join("\n");
            assert!(read_profile(cut.as_bytes()).is_err(), "{keep} lines must not parse");
        }
        // Tear the hist line mid-token: the histogram loses mass and the
        // normalization check must reject it.
        let hist_line = lines.iter().find(|l| l.starts_with("hist ")).unwrap();
        let torn = text.replace(hist_line, &hist_line[..hist_line.len() / 2]);
        assert!(read_profile(torn.as_bytes()).is_err(), "torn hist must not parse");
    }

    #[test]
    fn power_model_roundtrip() {
        use crate::power::{CorePowerModel, PowerModel};
        let model = PowerModel::from_parts(11.5, vec![1e-6, 8e-6, -1.3e-5, 1.4e-6, 8e-7]).unwrap();
        let mut buf = Vec::new();
        write_power_model(&model, &mut buf).unwrap();
        let back = read_power_model(buf.as_slice()).unwrap();
        assert!((back.idle_core_watts() - 11.5).abs() < 1e-12);
        assert_eq!(back.coefficients().len(), 5);
        assert!((back.coefficients()[2] + 1.3e-5).abs() < 1e-18);
    }

    #[test]
    fn power_model_validation() {
        use crate::power::PowerModel;
        assert!(PowerModel::from_parts(1.0, vec![1.0; 4]).is_err());
        assert!(PowerModel::from_parts(f64::NAN, vec![1.0; 5]).is_err());
        assert!(read_power_model("idle_core_w 5".as_bytes()).is_err());
        assert!(read_power_model("coefficients 1 2 3 4 5".as_bytes()).is_err());
        assert!(read_power_model("idle_core_w x\ncoefficients 1 2 3 4 5".as_bytes()).is_err());
    }
}
