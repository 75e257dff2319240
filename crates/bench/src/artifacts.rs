//! The `BENCH_*.json` artifacts: one writer, one parser, and the gate
//! that holds regenerated artifacts to their committed copies.
//!
//! Every experiment renders its artifact through [`Artifact`], so all of
//! them share one layout: top-level members one per line, arrays of
//! objects one element per line, everything else inline. Numbers that
//! depend on the machine (wall-clock probes) live in a single top-level
//! [`WALL_CLOCK`] member; everything else is deterministic in the seeds.
//!
//! The `check_artifacts` binary uses [`check_set`]: every artifact must
//! parse as JSON and carry the keys downstream tooling relies on, and —
//! given the committed copies — must equal its committed copy byte for
//! byte outside [`WALL_CLOCK`]. The parser is hand-rolled and deliberately
//! minimal (objects, arrays, strings, numbers, booleans, null) — the
//! workspace is dependency-free by design, so no serde.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// A parsed JSON value (just enough for artifact checking).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; artifact values are small).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-ordered.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, why: &str) -> String {
        format!("{why} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) => {
                    // Multi-byte UTF-8 passes through untouched.
                    let ch_len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + ch_len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("bad UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += ch_len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses a JSON document; trailing content (other than whitespace) is an
/// error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// The top-level member that holds an artifact's machine-dependent
/// numbers; the golden gate compares everything else.
pub const WALL_CLOCK: &str = "wall_clock";

/// A value being written into an artifact. Unlike [`Json`], objects keep
/// their members in the order written, and floats carry the number of
/// decimals they are printed with.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer.
    Int(i128),
    /// A float printed with a fixed number of decimals (`null` if not
    /// finite, which JSON cannot express).
    Fixed(f64, usize),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    List(Vec<Field>),
    /// An object.
    Obj(Obj),
}

/// An object's members, in the order they are written.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Obj(pub Vec<(&'static str, Field)>);

/// Builds an [`Obj`] from `"key": value` pairs, each value converted with
/// [`Field::from`]; floats go through [`fixed`].
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::artifacts::Obj(vec![$(($key, $crate::artifacts::Field::from($value))),*])
    };
}

/// A float printed with `decimals` decimals.
pub fn fixed(value: f64, decimals: usize) -> Field {
    Field::Fixed(value, decimals)
}

impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::Int(v.into())
    }
}

impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::Int(v.into())
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::Int(v as i128)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_owned())
    }
}

impl From<Obj> for Field {
    fn from(v: Obj) -> Self {
        Field::Obj(v)
    }
}

impl<T: Into<Field>> From<Vec<T>> for Field {
    fn from(v: Vec<T>) -> Self {
        Field::List(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Field>> From<Option<T>> for Field {
    fn from(v: Option<T>) -> Self {
        v.map_or(Field::Null, Into::into)
    }
}

impl Field {
    fn render(&self, out: &mut String) {
        match self {
            Field::Null => out.push_str("null"),
            Field::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Field::Int(n) => out.push_str(&n.to_string()),
            Field::Fixed(v, d) if v.is_finite() => out.push_str(&format!("{v:.d$}")),
            Field::Fixed(..) => out.push_str("null"),
            Field::Str(s) => escape(s, out),
            Field::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Field::Obj(obj) => {
                out.push('{');
                for (i, (key, value)) in obj.0.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    escape(key, out);
                    out.push_str(": ");
                    value.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One experiment's `BENCH_<experiment>.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    experiment: &'static str,
    members: Obj,
}

impl Artifact {
    /// The artifact of `experiment`; `members` follow the `experiment`
    /// member in the order given.
    pub fn new(experiment: &'static str, members: Obj) -> Self {
        Artifact {
            experiment,
            members,
        }
    }

    /// `BENCH_<experiment>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.experiment)
    }

    /// The JSON text: top-level members one per line, arrays of objects
    /// one element per line, everything else inline.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": ");
        escape(self.experiment, &mut out);
        for (key, value) in &self.members.0 {
            out.push_str(",\n  ");
            escape(key, &mut out);
            out.push_str(": ");
            match value {
                Field::List(items)
                    if !items.is_empty() && items.iter().all(|f| matches!(f, Field::Obj(_))) =>
                {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(if i == 0 { "    " } else { ",\n    " });
                        item.render(&mut out);
                    }
                    out.push_str("\n  ]");
                }
                _ => value.render(&mut out),
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the artifact into `dir` as [`Artifact::file_name`].
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::write(dir.join(self.file_name()), self.render())
    }
}

/// Required top-level keys per experiment id (`"experiment"` itself is
/// always required).
pub fn required_keys(experiment: &str) -> &'static [&'static str] {
    match experiment {
        "e1" => &["seed", "all_equivalent", "scenarios"],
        "e6" => &["seed", "calls", "period_ms", "baseline", "resilient"],
        "e7" => &[
            "seed",
            "calls",
            "period_ms",
            "supervised_trace_identical",
            "naive_trace_identical",
            "baseline",
            "supervised",
            "naive",
        ],
        "e8" => &[
            "seed",
            "horizon_ms",
            "shed_beats_naive",
            "brownout_beats_naive",
            "crash_trace_identical",
            "recovered_mode_matches",
            "naive",
            "shed",
            "brownout",
        ],
        "e9" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "ack_zero_lost",
            "ack_zero_divergence",
            "async_loss_observed",
            "replays_consistent",
            "one_primary_per_epoch",
            "campaigns",
        ],
        "e10" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "unmonitored_divergence_observed",
            "monitors_caught_all",
            "zero_divergence_monitored",
            "standby_caught_all",
            "replays_consistent",
            WALL_CLOCK,
            "campaigns",
        ],
        "e13" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "naive_loss_observed",
            "checksummed_detects_byte_damage",
            "self_healing_detected_all",
            "self_healing_zero_loss",
            "repairs_byte_identical",
            "replays_consistent",
            WALL_CLOCK,
            "campaigns",
        ],
        "e14" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "all_consistent",
            "zero_committed_lost",
            "replays_byte_identical",
            "live_goodput_wins",
            "goodput_live",
            "goodput_stw",
            "campaigns",
        ],
        "e15" => &[
            "seed",
            "seeds",
            "calls",
            "period_ms",
            "quorum_zero_lost",
            "quorum_zero_divergence",
            "availability_strictly_better",
            "replays_consistent",
            "one_primary_per_epoch",
            "upgrades_propagated",
            "unavailable_quorum",
            "unavailable_baseline",
            "campaigns",
        ],
        "e11" => &[
            "seed",
            "seeds",
            "draws_per_model",
            "trials_run",
            "detected",
            "detection_rate",
            "false_positives",
            "baselines",
            "trials",
        ],
        _ => &["seed"],
    }
}

/// Checks one artifact's text: parses it and verifies the experiment's
/// required keys exist. Returns the experiment id.
pub fn check_artifact(name: &str, text: &str) -> Result<String, String> {
    let v = parse(text).map_err(|e| format!("{name}: does not parse: {e}"))?;
    let exp = v
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{name}: missing string key \"experiment\""))?
        .to_owned();
    for key in required_keys(&exp) {
        if v.get(key).is_none() {
            return Err(format!(
                "{name}: experiment `{exp}` is missing key \"{key}\""
            ));
        }
    }
    Ok(exp)
}

/// Compares a regenerated artifact with its committed (golden) copy.
/// Everything outside the top-level [`WALL_CLOCK`] member must match byte
/// for byte; the error names the file and the key path of the first
/// difference in value, or the first differing line when only the layout
/// or printed precision moved.
pub fn compare_golden(name: &str, fresh: &str, golden: &str) -> Result<(), String> {
    let parsed = |side: &str, text: &str| {
        parse(text).map_err(|e| format!("{name}: {side} copy does not parse: {e}"))
    };
    let (mut f, mut g) = (parsed("regenerated", fresh)?, parsed("committed", golden)?);
    for v in [&mut f, &mut g] {
        if let Json::Obj(m) = v {
            m.remove(WALL_CLOCK);
        }
    }
    if let Some(path) = first_difference(&f, &g, "") {
        return Err(format!(
            "{name}: differs from the committed copy at `{path}`"
        ));
    }
    let wall_clock_line = format!("  \"{WALL_CLOCK}\":");
    let kept = |text: &str| -> Vec<(usize, String)> {
        text.lines()
            .enumerate()
            .filter(|(_, l)| !l.starts_with(&wall_clock_line))
            .map(|(i, l)| (i + 1, l.to_owned()))
            .collect()
    };
    let (fl, gl) = (kept(fresh), kept(golden));
    if let Some(((line, _), _)) = fl.iter().zip(&gl).find(|(a, b)| a.1 != b.1) {
        return Err(format!(
            "{name}: layout differs from the committed copy at line {line}"
        ));
    }
    if fl.len() != gl.len() || fresh.ends_with('\n') != golden.ends_with('\n') {
        return Err(format!(
            "{name}: layout differs from the committed copy at the end of the file"
        ));
    }
    Ok(())
}

/// The key path of the first place two JSON values differ (`None` if
/// they are equal): `campaigns[1].naive.detected`, or `(root)`.
fn first_difference(a: &Json, b: &Json, path: &str) -> Option<String> {
    let at = |step: String| {
        if path.is_empty() {
            step
        } else if step.starts_with('[') {
            format!("{path}{step}")
        } else {
            format!("{path}.{step}")
        }
    };
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) => {
            let keys: std::collections::BTreeSet<&String> = x.keys().chain(y.keys()).collect();
            keys.into_iter().find_map(|k| match (x.get(k), y.get(k)) {
                (Some(u), Some(v)) => first_difference(u, v, &at(k.clone())),
                _ => Some(at(k.clone())),
            })
        }
        (Json::Arr(x), Json::Arr(y)) => x
            .iter()
            .zip(y)
            .enumerate()
            .find_map(|(i, (u, v))| first_difference(u, v, &at(format!("[{i}]"))))
            .or_else(|| (x.len() != y.len()).then(|| at(format!("[{}]", x.len().min(y.len()))))),
        _ if a == b => None,
        _ if path.is_empty() => Some("(root)".to_owned()),
        _ => Some(path.to_owned()),
    }
}

/// Checks a set of artifacts (file name → text): each must pass
/// [`check_artifact`], and with `golden` (the committed copies) each must
/// also pass [`compare_golden`], and the two sets must hold the same file
/// names. Returns one line per artifact that passed, or every failure.
pub fn check_set(
    fresh: &BTreeMap<String, String>,
    golden: Option<&BTreeMap<String, String>>,
) -> Result<Vec<String>, Vec<String>> {
    let mut passed = Vec::new();
    let mut failed = Vec::new();
    if fresh.is_empty() {
        failed.push("no BENCH_*.json artifacts to check".to_owned());
    }
    for (name, text) in fresh {
        let verdict =
            check_artifact(name, text).and_then(|exp| match golden.map(|g| g.get(name)) {
                None => Ok(format!("{name} (experiment {exp}, {} bytes)", text.len())),
                Some(None) => Err(format!("{name}: regenerated, but no committed copy exists")),
                Some(Some(committed)) => compare_golden(name, text, committed)
                    .map(|()| format!("{name} (experiment {exp}, matches the committed copy)")),
            });
        match verdict {
            Ok(line) => passed.push(line),
            Err(e) => failed.push(e),
        }
    }
    for name in golden.into_iter().flat_map(BTreeMap::keys) {
        if !fresh.contains_key(name) {
            failed.push(format!("{name}: committed, but not regenerated"));
        }
    }
    if failed.is_empty() {
        Ok(passed)
    } else {
        Err(failed)
    }
}

/// Reads every `BENCH_*.json` in `dir` (file name → text).
pub fn read_dir(dir: &Path) -> Result<BTreeMap<String, String>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?;
    let mut out = BTreeMap::new();
    for entry in entries.filter_map(Result::ok) {
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let text = std::fs::read_to_string(entry.path())
                .map_err(|e| format!("{name}: unreadable: {e}"))?;
            out.insert(name, text);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".into())
        );
        let v = parse("{\"a\": [1, 2, {\"b\": false}], \"c\": null}").unwrap();
        assert!(matches!(v.get("a"), Some(Json::Arr(items)) if items.len() == 3));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
    }

    #[test]
    fn rejects_garbage_and_trailing_content() {
        assert!(parse("nope").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1, 2").is_err());
    }

    #[test]
    fn real_artifacts_pass_the_check() {
        let mut e10 = crate::e10::run(&[3], 120, 20);
        let mut e13 = crate::e13::run(&[3], 120, 20);
        for (exp, text) in [
            ("e10", e10.artifact().render()),
            ("e13", e13.artifact().render()),
        ] {
            assert!(
                text.contains("\n  \"wall_clock\": null,\n"),
                "{exp}: {text}"
            );
        }
        let cost = crate::micro::HotpathCost {
            base_ns_per_call: 1000.0,
            variant_ns_per_call: 1004.2,
            pct: 0.42,
        };
        e10.wall_clock = Some(cost);
        e13.wall_clock = Some(cost);
        let artifacts = [
            crate::e1::run(3).artifact(),
            crate::e6::run(3, 50, 20).artifact(),
            crate::e7::run(3, 80, 20).artifact(),
            crate::e8::run(3, 300).artifact(),
            crate::e9::run(&[3], 120, 20).artifact(),
            e10.artifact(),
            crate::e11::run(&[3], 4).artifact(),
            e13.artifact(),
            crate::e14::run(&[3], 120, 20).artifact(),
            crate::e15::run(&[3], 120, 20).artifact(),
        ];
        for a in &artifacts {
            let (name, text) = (a.file_name(), a.render());
            let exp = check_artifact(&name, &text).unwrap();
            assert_eq!(name, format!("BENCH_{exp}.json"));
            if exp == "e10" || exp == "e13" {
                let wall = parse(&text).unwrap().get(WALL_CLOCK).cloned();
                assert_eq!(
                    wall.and_then(|w| w.get("overhead_pct").cloned()),
                    Some(Json::Num(0.42)),
                    "{exp}"
                );
            }
        }
    }

    fn sample() -> Artifact {
        Artifact::new(
            "e6",
            crate::obj! {
                "seed": 7u64,
                "calls": 40u64,
                "period_ms": 20u64,
                "baseline": crate::obj! { "calls": 40u64, "rate": fixed(0.5, 4) },
                "resilient": crate::obj! { "calls": 40u64, "rate": fixed(1.0, 4) },
                "wall_clock": crate::obj! { "overhead_pct": fixed(3.2, 2) },
                "campaigns": vec![crate::obj! { "seed": 1u64, "lost": 0u64 }, crate::obj! { "seed": 3u64, "lost": 2u64 }],
            },
        )
    }

    #[test]
    fn writer_escapes_strings_renders_none_as_null_and_keeps_precision() {
        let a = Artifact::new(
            "x",
            crate::obj! {
                "name": "a \"quoted\" \\ path\n\tend\u{1}",
                "missing": None::<u64>,
                "present": Some(5u64),
                "rate": fixed(1.0, 4),
                "ratio": fixed(2.0 / 3.0, 3),
                "pct": fixed(-0.5, 2),
                "nan": fixed(f64::NAN, 2),
                "seeds": vec![1u64, 3, 7],
                "rows": Vec::<Obj>::new(),
            },
        );
        let text = a.render();
        assert_eq!(
            text,
            concat!(
                "{\n",
                "  \"experiment\": \"x\",\n",
                "  \"name\": \"a \\\"quoted\\\" \\\\ path\\n\\tend\\u0001\",\n",
                "  \"missing\": null,\n",
                "  \"present\": 5,\n",
                "  \"rate\": 1.0000,\n",
                "  \"ratio\": 0.667,\n",
                "  \"pct\": -0.50,\n",
                "  \"nan\": null,\n",
                "  \"seeds\": [1, 3, 7],\n",
                "  \"rows\": []\n",
                "}\n"
            )
        );
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("name").and_then(Json::as_str),
            Some("a \"quoted\" \\ path\n\tend\u{1}")
        );
        // Arrays of objects go one element per line.
        let s = sample().render();
        assert!(s.contains("  \"campaigns\": [\n    {\"seed\": 1, \"lost\": 0},\n    {\"seed\": 3, \"lost\": 2}\n  ]\n}\n"), "{s}");
    }

    fn set(artifacts: &[(&str, String)]) -> BTreeMap<String, String> {
        artifacts
            .iter()
            .map(|(n, t)| ((*n).to_owned(), t.clone()))
            .collect()
    }

    #[test]
    fn golden_gate_passes_when_only_wall_clock_differs() {
        let golden = sample().render();
        let fresh = golden.replace("\"overhead_pct\": 3.20", "\"overhead_pct\": -1.75");
        assert_ne!(fresh, golden);
        let g = set(&[("BENCH_e6.json", golden)]);
        let passed = check_set(&set(&[("BENCH_e6.json", fresh)]), Some(&g)).unwrap();
        assert_eq!(passed.len(), 1);
    }

    #[test]
    fn golden_gate_names_the_file_and_key_path_of_a_changed_count() {
        let golden = sample().render();
        let fresh = golden.replace("{\"seed\": 3, \"lost\": 2}", "{\"seed\": 3, \"lost\": 1}");
        let g = set(&[("BENCH_e6.json", golden.clone())]);
        let err = check_set(&set(&[("BENCH_e6.json", fresh)]), Some(&g)).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("BENCH_e6.json"), "{err:?}");
        assert!(err[0].contains("`campaigns[1].lost`"), "{err:?}");
        // A top-level and a nested scalar are named the same way.
        let fresh = golden.replace(
            "\"calls\": 40, \"rate\": 0.5000",
            "\"calls\": 41, \"rate\": 0.5000",
        );
        let err = compare_golden("BENCH_e6.json", &fresh, &golden).unwrap_err();
        assert!(err.contains("`baseline.calls`"), "{err}");
        // Same values, different printed precision: a layout difference.
        let fresh = golden.replace("0.5000", "0.50");
        let err = compare_golden("BENCH_e6.json", &fresh, &golden).unwrap_err();
        assert!(err.contains("line 6"), "{err}");
    }

    #[test]
    fn golden_gate_fails_on_a_missing_and_on_an_extra_artifact() {
        let e6 = sample().render();
        let e1 = crate::e1::run(3).artifact().render();
        let golden = set(&[("BENCH_e1.json", e1.clone()), ("BENCH_e6.json", e6.clone())]);
        let err = check_set(&set(&[("BENCH_e6.json", e6.clone())]), Some(&golden)).unwrap_err();
        assert_eq!(err, ["BENCH_e1.json: committed, but not regenerated"]);
        let golden = set(&[("BENCH_e6.json", e6.clone())]);
        let fresh = set(&[("BENCH_e1.json", e1), ("BENCH_e6.json", e6)]);
        let err = check_set(&fresh, Some(&golden)).unwrap_err();
        assert_eq!(
            err,
            ["BENCH_e1.json: regenerated, but no committed copy exists"]
        );
        // Without a golden set only the per-file checks run.
        assert_eq!(check_set(&fresh, None).unwrap().len(), 2);
        assert!(check_set(&BTreeMap::new(), None).is_err());
    }

    #[test]
    fn golden_gate_keeps_the_per_file_checks() {
        let bad = "{\"experiment\": \"e7\", \"seed\": 1}".to_owned();
        let golden = set(&[("BENCH_e7.json", bad.clone())]);
        let err = check_set(&set(&[("BENCH_e7.json", bad)]), Some(&golden)).unwrap_err();
        assert!(err[0].contains("missing key"), "{err:?}");
        let err = check_set(&set(&[("BENCH_e7.json", "{".to_owned())]), None).unwrap_err();
        assert!(err[0].contains("does not parse"), "{err:?}");
    }

    #[test]
    fn missing_keys_are_reported() {
        let bad = "{\"experiment\": \"e7\", \"seed\": 1}";
        let err = check_artifact("x.json", bad).unwrap_err();
        assert!(err.contains("missing key"), "{err}");
        let no_exp = "{\"seed\": 1}";
        assert!(check_artifact("x.json", no_exp).is_err());
    }
}
