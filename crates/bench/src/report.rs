//! Shared scaffolding for versioned bench reports.
//!
//! Every report this crate writes (`skew`) is a JSON object
//! whose first two keys are the same versioned header: a `schema` tag
//! (`pim-<name>-bench/<version>`) and the [`crate::provenance`] block.
//! Builders go through [`document`] so a report cannot forget its header,
//! and gates go through [`expect_schema`] so a schema drift fails loudly
//! instead of being silently misread as zeros.

use pim_runtime::export::{str as jstr, Json};

/// Build a report document: the versioned header (`schema` +
/// `provenance`) followed by the caller's fields, in order.
pub fn document(schema: &str, fields: Vec<(String, Json)>) -> Json {
    let mut all = Vec::with_capacity(fields.len() + 2);
    all.push(("schema".into(), jstr(schema)));
    all.push(("provenance".into(), crate::provenance::provenance_json()));
    all.extend(fields);
    Json::Obj(all)
}

/// Verify a parsed report declares exactly `schema`.
pub fn expect_schema(doc: &Json, schema: &str) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(schema) {
        return Err(format!("not a {schema} document"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_runtime::export::num;

    #[test]
    fn document_leads_with_the_versioned_header() {
        let doc = document("pim-x-bench/1", vec![("n".into(), num(7))]);
        let rendered = doc.to_json();
        let schema_at = rendered.find("\"schema\"").unwrap();
        let prov_at = rendered.find("\"provenance\"").unwrap();
        let n_at = rendered.find("\"n\"").unwrap();
        assert!(schema_at < prov_at && prov_at < n_at);
        assert!(expect_schema(&doc, "pim-x-bench/1").is_ok());
        assert!(expect_schema(&doc, "pim-x-bench/2").is_err());
    }
}
