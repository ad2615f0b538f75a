//! SARIF 2.1.0 rendering.
//!
//! CI uploads `lint.sarif` through `github/codeql-action/upload-sarif`
//! so findings annotate pull requests inline. The document is built by
//! deterministic string concatenation — keys in a fixed order, findings
//! pre-sorted by the engine — so the same findings always render to the
//! same bytes and the CI artifact does not churn between runs.

use crate::diag::{escape, Finding};
use crate::rules::{registry, META_RULES};

const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Descriptions for the engine's own audit rules, which are not `Rule`
/// impls and so are absent from the registry.
fn meta_description(id: &str) -> &'static str {
    match id {
        "unused-allow" => "a lint:allow that suppresses nothing is itself an error",
        "malformed-allow" => "lint:allow comments must parse and name a known rule",
        "malformed-effect" => "lint:effect annotations must parse and use a known spec",
        _ => "engine audit",
    }
}

/// Renders findings as a SARIF 2.1.0 document. Paths are workspace-
/// relative under the `SRCROOT` uri base; columns count Unicode code
/// points (matching the lexer's column accounting).
pub fn render_sarif(findings: &[Finding]) -> String {
    let rules: Vec<(String, String)> = registry()
        .iter()
        .map(|r| (r.id().to_string(), r.description().to_string()))
        .chain(
            META_RULES
                .iter()
                .map(|&id| (id.to_string(), meta_description(id).to_string())),
        )
        .collect();
    let rule_index =
        |id: &str| rules.iter().position(|(rid, _)| rid == id).unwrap_or(0);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"$schema\": \"{SCHEMA}\",\n"));
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"manytest-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/manytest\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        env!("CARGO_PKG_VERSION")
    ));
    out.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in rules.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            escape(id),
            escape(desc),
            if i + 1 == rules.len() { "" } else { "," }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"columnKind\": \"unicodeCodePoints\",\n");
    out.push_str(
        "      \"originalUriBaseIds\": {\"SRCROOT\": {\"uri\": \"file:///\"}},\n",
    );
    out.push_str("      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", escape(f.rule)));
        out.push_str(&format!(
            "          \"ruleIndex\": {},\n",
            rule_index(f.rule)
        ));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": \"{}\"}},\n",
            escape(&f.message)
        ));
        out.push_str("          \"locations\": [\n");
        out.push_str("            {\n              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{\"uri\": \"{}\", \"uriBaseId\": \"SRCROOT\"}},\n",
            escape(&f.file)
        ));
        out.push_str(&format!(
            "                \"region\": {{\"startLine\": {}, \"startColumn\": {}}}\n",
            f.line, f.col
        ));
        out.push_str("              }\n            }\n          ]\n        }");
    }
    out.push_str(if findings.is_empty() {
        "]\n"
    } else {
        "\n      ]\n"
    });
    out.push_str("    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::source::{SourceFile, Workspace};

    fn finding() -> Finding {
        Finding {
            rule: "wall-clock",
            file: "crates/sim/src/time.rs".into(),
            line: 3,
            col: 9,
            message: "Instant outside crates/bench".into(),
            rationale: "wall-clock reads break replay",
        }
    }

    #[test]
    fn sarif_parses_and_carries_schema_and_location() {
        let doc = json::parse(&render_sarif(&[finding()])).expect("valid JSON");
        assert_eq!(doc.get("$schema").and_then(|v| v.as_str()), Some(SCHEMA));
        assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
        let run = &doc.get("runs").and_then(|v| v.as_arr()).unwrap()[0];
        let results = run.get("results").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(results.len(), 1);
        let loc = &results[0].get("locations").and_then(|v| v.as_arr()).unwrap()[0];
        let region = loc
            .get("physicalLocation")
            .and_then(|p| p.get("region"))
            .unwrap();
        assert_eq!(region.get("startLine").and_then(|v| v.as_num()), Some(3.0));
    }

    #[test]
    fn rule_index_points_at_the_matching_rule() {
        let doc = json::parse(&render_sarif(&[finding()])).expect("valid JSON");
        let run = &doc.get("runs").and_then(|v| v.as_arr()).unwrap()[0];
        let rules = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(|v| v.as_arr())
            .unwrap();
        let result = &run.get("results").and_then(|v| v.as_arr()).unwrap()[0];
        let idx = result.get("ruleIndex").and_then(|v| v.as_num()).unwrap() as usize;
        assert_eq!(
            rules[idx].get("id").and_then(|v| v.as_str()),
            Some("wall-clock")
        );
    }

    #[test]
    fn written_sarif_validates_against_the_2_1_0_shape() {
        // One violating and one clean file, linted in memory.
        let ws = Workspace::from_sources(
            "/nonexistent",
            vec![
                SourceFile::from_source(
                    "crates/core/src/bad.rs",
                    "use std::collections::HashMap;\npub type T = HashMap<u32, u32>;\n",
                ),
                SourceFile::from_source(
                    "crates/core/src/good.rs",
                    "pub fn id(x: u32) -> u32 {\n    x\n}\n",
                ),
            ],
        );
        let report = crate::run(&ws);
        assert!(!report.findings.is_empty(), "fixture must produce findings");
        let doc = json::parse(&render_sarif(&report.findings)).expect("SARIF is valid JSON");
        assert_eq!(
            doc.get("$schema").and_then(|v| v.as_str()),
            Some("https://json.schemastore.org/sarif-2.1.0.json")
        );
        assert_eq!(doc.get("version").and_then(|v| v.as_str()), Some("2.1.0"));
        let run = &doc.get("runs").and_then(|v| v.as_arr()).expect("runs array")[0];
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .expect("tool.driver");
        assert_eq!(driver.get("name").and_then(|v| v.as_str()), Some("manytest-lint"));
        let rules = driver.get("rules").and_then(|v| v.as_arr()).expect("rules");
        assert!(!rules.is_empty());
        for result in run.get("results").and_then(|v| v.as_arr()).expect("results") {
            // Every result points at a declared rule and a real location.
            let idx = result
                .get("ruleIndex")
                .and_then(|v| v.as_num())
                .expect("ruleIndex") as usize;
            assert_eq!(
                rules[idx].get("id").and_then(|v| v.as_str()),
                result.get("ruleId").and_then(|v| v.as_str())
            );
            let region = result.get("locations").and_then(|v| v.as_arr()).expect("locations")[0]
                .get("physicalLocation")
                .and_then(|p| p.get("region"))
                .expect("region");
            assert!(region.get("startLine").and_then(|v| v.as_num()).unwrap_or(0.0) >= 1.0);
            assert!(region.get("startColumn").and_then(|v| v.as_num()).unwrap_or(0.0) >= 1.0);
        }
    }

    #[test]
    fn empty_findings_render_an_empty_results_array() {
        let doc = json::parse(&render_sarif(&[])).expect("valid JSON");
        let run = &doc.get("runs").and_then(|v| v.as_arr()).unwrap()[0];
        assert_eq!(
            run.get("results").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(0)
        );
    }
}
