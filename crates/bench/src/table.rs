//! The one row printer every section renders its text through.
//!
//! A template is literal text with `{path:spec}` placeholders. `path` is a
//! dotted walk into the row object (`infiniband.contended_s`); `spec` is
//! `[<|>][width][.precision[e]][*scale]` — alignment and width as in
//! `format!`, a precision for floats (`e` for exponent form) and a factor
//! the float is multiplied by first (`*1e6` prints seconds as
//! microseconds). A missing or `null` value prints as `-`, an array as
//! `[a, b, c]`.

use columbia_rt::Json;

fn cell(value: Option<&Json>, spec: &str) -> String {
    let bad = |what: &str| -> ! { panic!("bad {what} in placeholder spec {spec:?}") };
    let (spec, scale) = match spec.split_once('*') {
        Some((s, k)) => (s, k.parse::<f64>().unwrap_or_else(|_| bad("scale"))),
        None => (spec, 1.0),
    };
    let (align, prec) = spec
        .split_once('.')
        .map_or((spec, None), |(a, p)| (a, Some(p)));
    let body = match (value, prec) {
        (Some(Json::Num(x)), None) => format!("{}", x * scale),
        (Some(Json::Num(x)), Some(p)) => {
            let digits = p.trim_end_matches('e');
            let digits: usize = digits.parse().unwrap_or_else(|_| bad("precision"));
            if p.ends_with('e') {
                format!("{:.digits$e}", x * scale)
            } else {
                format!("{:.digits$}", x * scale)
            }
        }
        (Some(Json::UInt(n)), _) => n.to_string(),
        (Some(Json::Int(n)), _) => n.to_string(),
        (Some(Json::Bool(b)), _) => b.to_string(),
        (Some(Json::Str(s)), _) => s.clone(),
        (Some(Json::Arr(items)), _) => {
            let items: Vec<String> = items.iter().map(|i| cell(Some(i), "")).collect();
            format!("[{}]", items.join(", "))
        }
        _ => "-".to_string(),
    };
    let width: usize = match align.trim_start_matches(['<', '>']) {
        "" => 0,
        w => w.parse().unwrap_or_else(|_| bad("width")),
    };
    if align.starts_with('<') {
        format!("{body:<width$}")
    } else {
        format!("{body:>width$}")
    }
}

/// Fill `template` from one row object.
pub fn line(template: &str, row: &Json) -> String {
    let mut out = String::new();
    let mut rest = template;
    while let Some((literal, tail)) = rest.split_once('{') {
        out.push_str(literal);
        let (field, tail) = tail.split_once('}').expect("unclosed placeholder");
        let (path, spec) = field.split_once(':').unwrap_or((field, ""));
        let value = path.split('.').try_fold(row, |j, key| j.get(key));
        out.push_str(&cell(value, spec));
        rest = tail;
    }
    out.push_str(rest);
    out
}

/// One [`line()`] plus a newline per element of the array `rows`.
pub fn rows(template: &str, rows: &Json) -> String {
    match rows {
        Json::Arr(items) => items.iter().map(|r| line(template, r) + "\n").collect(),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholders_match_the_equivalent_format_strings() {
        let row = Json::obj([
            ("name", Json::Str("rk_axpy".into())),
            ("n", Json::UInt(4096)),
            ("t", Json::obj([("s", Json::Num(1.25e-4))])),
            ("missing", Json::Null),
        ]);
        assert_eq!(
            line("{name:<10}|{n:>6}|{t.s:>8.1*1e6}us|{t.s:.2e}|{t.s}", &row),
            format!(
                "{:<10}|{:>6}|{:>8.1}us|{:.2e}|{}",
                "rk_axpy",
                4096,
                1.25e-4 * 1e6,
                1.25e-4,
                1.25e-4
            )
        );
        assert_eq!(line("{missing:>4}{absent.key:<3}|", &row), "   --  |");
        assert_eq!(rows("{n}", &Json::arr([row.clone(), row])), "4096\n4096\n");
    }
}
