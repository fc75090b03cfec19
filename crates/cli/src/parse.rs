//! Argument parsing for `igo-sim` (dependency-free by design).

use igo_core::Technique;
use igo_npu_sim::NpuConfig;
use igo_tensor::GemmShape;
use igo_workloads::ModelId;

/// Accepted model abbreviations (superset of Table 4's: the size variants
/// get explicit names).
pub const MODEL_TABLE: &[(&str, ModelId)] = &[
    ("rcnn", ModelId::FasterRcnn),
    ("goo", ModelId::GoogleNet),
    ("ncf", ModelId::Ncf),
    ("res", ModelId::Resnet50),
    ("dlrm", ModelId::Dlrm),
    ("mob", ModelId::MobileNet),
    ("yolo", ModelId::YoloV5),
    ("yolo-tiny", ModelId::YoloV2Tiny),
    ("bert", ModelId::BertLarge),
    ("bert-tiny", ModelId::BertTiny),
    ("t5", ModelId::T5Large),
    ("t5-small", ModelId::T5Small),
];

/// Full model names (the zoo's canonical `Model::name` strings, plus the
/// common unsuffixed spellings), accepted alongside the abbreviations.
const FULL_NAME_TABLE: &[(&str, ModelId)] = &[
    ("faster-rcnn", ModelId::FasterRcnn),
    ("googlenet", ModelId::GoogleNet),
    ("resnet50", ModelId::Resnet50),
    ("mobilenet", ModelId::MobileNet),
    ("yolov5", ModelId::YoloV5),
    ("yolov5l", ModelId::YoloV5),
    ("yolov2-tiny", ModelId::YoloV2Tiny),
    ("bert-large", ModelId::BertLarge),
    ("t5-large", ModelId::T5Large),
];

/// Parse a model argument: a Table-4 abbreviation (`res`, `bert`, ...) or
/// a full model name (`resnet50`, `bert-large`, ...), case-insensitive.
pub fn parse_model(arg: &str) -> Option<ModelId> {
    let lower = arg.to_ascii_lowercase();
    MODEL_TABLE
        .iter()
        .chain(FULL_NAME_TABLE)
        .find(|(name, _)| *name == lower)
        .map(|(_, id)| *id)
}

/// Parse `edge`, `server`, or `serverxN` (N in 1..=8).
pub fn parse_config(arg: &str) -> Option<NpuConfig> {
    let lower = arg.to_ascii_lowercase();
    match lower.as_str() {
        "edge" | "small" => Some(NpuConfig::small_edge()),
        "server" | "large" => Some(NpuConfig::large_single_core()),
        _ => {
            let cores: u32 = lower.strip_prefix("serverx")?.parse().ok()?;
            if (1..=8).contains(&cores) {
                Some(NpuConfig::large_server(cores))
            } else {
                None
            }
        }
    }
}

/// Parse an ad-hoc layer shape `MxKxN` (e.g. `512x256x1024`); all three
/// dimensions must be positive. The separator is a literal `x` (either
/// case).
pub fn parse_mkn(arg: &str) -> Option<GemmShape> {
    let lower = arg.to_ascii_lowercase();
    let mut parts = lower.split('x');
    let m: u64 = parts.next()?.parse().ok()?;
    let k: u64 = parts.next()?.parse().ok()?;
    let n: u64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || m == 0 || k == 0 || n == 0 {
        return None;
    }
    Some(GemmShape::new(m, k, n))
}

/// Parse a technique name for `trace --technique`, case-insensitive.
pub fn parse_technique(arg: &str) -> Option<Technique> {
    match arg.to_ascii_lowercase().as_str() {
        "baseline" => Some(Technique::Baseline),
        "ideal" | "ideal-dy-reuse" => Some(Technique::IdealDyReuse),
        "interleaving" => Some(Technique::Interleaving),
        "rearrangement" => Some(Technique::Rearrangement),
        "oracle" | "rearrangement-oracle" => Some(Technique::RearrangementOracle),
        "partitioning" | "data-partitioning" => Some(Technique::DataPartitioning),
        _ => None,
    }
}

/// Parse a comma-separated SPM ladder in MiB (e.g. `3,6,12,24`); every
/// rung must be a positive integer whose size in bytes (`mib << 20`) fits
/// in a `u64`. Rungs are sorted ascending and deduplicated, so `24,3,3`
/// and `3,24` name the same ladder.
pub fn parse_spm_ladder(arg: &str) -> Option<Vec<u64>> {
    let mut rungs: Vec<u64> = arg
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<u64>()
                .ok()
                .filter(|&v| v > 0 && v.checked_mul(1 << 20).is_some())
        })
        .collect::<Option<Vec<u64>>>()?;
    rungs.sort_unstable();
    rungs.dedup();
    if rungs.is_empty() {
        None
    } else {
        Some(rungs)
    }
}

/// Parse a comma-separated technique list (names as in
/// [`parse_technique`]), e.g. `baseline,rearrangement,data-partitioning`.
pub fn parse_techniques(arg: &str) -> Option<Vec<Technique>> {
    let list: Vec<Technique> = arg
        .split(',')
        .map(|p| parse_technique(p.trim()))
        .collect::<Option<Vec<Technique>>>()?;
    if list.is_empty() {
        None
    } else {
        Some(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_table_entries() {
        for (abbr, id) in MODEL_TABLE {
            assert_eq!(parse_model(abbr), Some(*id));
        }
        assert_eq!(parse_model("RES"), Some(ModelId::Resnet50));
        assert_eq!(parse_model("nope"), None);
    }

    #[test]
    fn parses_full_model_names() {
        for (name, id) in FULL_NAME_TABLE {
            assert_eq!(parse_model(name), Some(*id));
        }
        assert_eq!(parse_model("resnet50"), Some(ModelId::Resnet50));
        assert_eq!(parse_model("BERT-Large"), Some(ModelId::BertLarge));
        assert_eq!(parse_model("faster-rcnn"), Some(ModelId::FasterRcnn));
        // Every zoo model's canonical name string must parse back to its id.
        for id in igo_workloads::zoo::SERVER_SUITE
            .iter()
            .chain(igo_workloads::zoo::EDGE_SUITE.iter())
        {
            let m = igo_workloads::zoo::model(*id, 8);
            assert_eq!(parse_model(&m.name), Some(*id), "{}", m.name);
        }
    }

    #[test]
    fn parses_mkn_shapes() {
        assert_eq!(
            parse_mkn("512x256x1024"),
            Some(GemmShape::new(512, 256, 1024))
        );
        assert_eq!(parse_mkn("4X4X4"), Some(GemmShape::new(4, 4, 4)));
        assert!(parse_mkn("512x256").is_none());
        assert!(parse_mkn("512x256x1024x8").is_none());
        assert!(parse_mkn("0x1x1").is_none());
        assert!(parse_mkn("axbxc").is_none());
    }

    #[test]
    fn parses_techniques() {
        assert_eq!(parse_technique("baseline"), Some(Technique::Baseline));
        assert_eq!(
            parse_technique("Rearrangement"),
            Some(Technique::Rearrangement)
        );
        assert_eq!(parse_technique("ideal"), Some(Technique::IdealDyReuse));
        assert_eq!(
            parse_technique("oracle"),
            Some(Technique::RearrangementOracle)
        );
        assert_eq!(
            parse_technique("data-partitioning"),
            Some(Technique::DataPartitioning)
        );
        assert!(parse_technique("magic").is_none());
    }

    #[test]
    fn parses_spm_ladders_and_technique_lists() {
        assert_eq!(parse_spm_ladder("3,6,12"), Some(vec![3, 6, 12]));
        assert_eq!(parse_spm_ladder(" 24 "), Some(vec![24]));
        // Out-of-order and repeated rungs normalize to a sorted, unique
        // ladder: the ladder is a set of capacities, not a sequence.
        assert_eq!(parse_spm_ladder("24,3,3"), Some(vec![3, 24]));
        assert_eq!(parse_spm_ladder("12,6,12,6"), Some(vec![6, 12]));
        assert!(parse_spm_ladder("3,0").is_none());
        assert!(parse_spm_ladder("3,x").is_none());
        assert!(parse_spm_ladder("").is_none());
        // Rungs whose byte size overflows u64 are refused, not wrapped:
        // 2^44 MiB wraps to 0 bytes, 99999999999999 MiB to a bogus size.
        assert!(parse_spm_ladder("17592186044416").is_none());
        assert!(parse_spm_ladder("3,99999999999999").is_none());
        assert_eq!(
            parse_spm_ladder("17592186044415"),
            Some(vec![u64::MAX >> 20])
        );
        assert_eq!(
            parse_techniques("baseline, data-partitioning"),
            Some(vec![Technique::Baseline, Technique::DataPartitioning])
        );
        assert!(parse_techniques("baseline,magic").is_none());
    }

    #[test]
    fn parses_configs() {
        assert_eq!(parse_config("edge").unwrap().cores, 1);
        assert_eq!(parse_config("server").unwrap().pe.rows, 128);
        assert_eq!(parse_config("serverx4").unwrap().cores, 4);
        assert!(parse_config("serverx16").is_none());
        assert!(parse_config("gpu").is_none());
    }
}
