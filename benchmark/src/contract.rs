//! `BENCHMARK.json` is the one place that names the workloads and the
//! metrics and gives their units, directions and bounds. It is compiled
//! into the binary and read back here, so what a run prints and what
//! `repeat` enforces cannot drift from what the driver was told.
//!
//! The JSON reader is the small subset the contract and this binary's own
//! result lines need (no dependency can be added offline).

const SOURCE: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.space();
        if p.at == p.bytes.len() {
            Ok(value)
        } else {
            Err(format!("trailing text at byte {}", p.at))
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.space();
                    if self.eat(b',').is_err() {
                        self.eat(b'}')?;
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_err() {
                        self.eat(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or(format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of text".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let byte = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escape = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match escape {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => escape,
                        other => return Err(format!("escape \\{} not supported", other as char)),
                    });
                }
                _ => out.push(byte),
            }
        }
    }
}

/// One metric of the contract. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen; per-layer metrics have none.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Contract, String> {
        let json = Json::parse(SOURCE)?;
        let list = |key: &str| json.get(key).map(Json::items).unwrap_or_default();
        let text = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: an entry lacks \"{key}\""))
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        higher_is_better: text(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Contract {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// `measured` in the contract's order with the contract's units. What
    /// a run measures and what the contract lists must be the same set.
    pub fn report(
        defs: &[MetricDef],
        measured: &[(&str, f64)],
    ) -> Result<Vec<(String, f64, String)>, String> {
        if let Some((name, _)) = measured
            .iter()
            .find(|(name, _)| !defs.iter().any(|d| d.name == *name))
        {
            return Err(format!("{name} is measured but not in BENCHMARK.json"));
        }
        defs.iter()
            .map(|d| {
                measured
                    .iter()
                    .find(|(name, _)| d.name == *name)
                    .map(|&(_, value)| (d.name.clone(), value, d.unit.clone()))
                    .ok_or(format!("{} is in BENCHMARK.json but not measured", d.name))
            })
            .collect()
    }
}
