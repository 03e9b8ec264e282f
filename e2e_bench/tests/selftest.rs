//! Tiny-scale self-test of the benchmark: every metric `BENCHMARK.json`
//! names is printed with its unit in the mode that owns it, the result
//! line has exactly the four keys the contract names, and the traced
//! run's spans nest.
//!
//! Run with `cargo test --release --manifest-path e2e_bench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["band_b1", "equi_b64", "zipf_mesh"];
const SEED: u64 = 3;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn declared(section: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(section)
        .expect("section present")
        .as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// One benchmark process at a time: the runs are paced and oracle-checked,
/// so they must not compete for the cores.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs the benchmark at tiny scale; returns its stdout.
fn run(workload: &str, trace: u8) -> String {
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &SEED.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn check_metrics(workload: &str, trace: u8, section: &str) {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the last line is JSON");
    let Value::Obj(keys) = &result else {
        panic!("result is an object")
    };
    let names: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(names, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {last}"
    );
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object")
    };
    let printed: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{name} is finite");
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(
        printed,
        declared(section),
        "{workload} --trace {trace} prints exactly the {section} metrics"
    );
    for (name, unit) in &printed {
        let line = format!("# {name} = ");
        let human = stdout
            .lines()
            .find(|l| l.starts_with(&line))
            .unwrap_or_else(|| panic!("{name} line"));
        assert!(
            human.ends_with(&format!(" {unit}")),
            "{human} carries its unit"
        );
    }
}

#[test]
fn end_to_end_run_prints_every_declared_metric() {
    for w in WORKLOADS {
        check_metrics(w, 0, "end_to_end");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_and_its_spans_nest() {
    for w in WORKLOADS {
        check_metrics(w, 1, "per_layer");
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{w}-{SEED}.json"));
        let trace =
            parse(&std::fs::read_to_string(&path).expect("trace written")).expect("trace parses");
        let run = trace
            .get("run")
            .and_then(Value::as_str)
            .expect("run id")
            .to_string();
        let spans = trace.get("spans").expect("spans").as_arr();
        assert!(spans.len() > 10, "{w}: a span around every layer call");
        let field = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).expect(k);
        let mut roots = 0;
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(
                s.get("run").and_then(Value::as_str),
                Some(run.as_str()),
                "one run id"
            );
            assert_eq!(field(s, "id") as usize, i);
            assert!(
                field(s, "end_ns") >= field(s, "start_ns"),
                "span {i} ends after it starts"
            );
            match s.get("parent") {
                Some(Value::Null) => roots += 1,
                Some(Value::Num(p)) => {
                    let p = &spans[*p as usize];
                    assert!(field(p, "id") < i as f64, "parents open first");
                    assert!(
                        field(p, "start_ns") <= field(s, "start_ns"),
                        "span {i} starts inside its parent"
                    );
                    assert!(
                        field(s, "end_ns") <= field(p, "end_ns"),
                        "span {i} ends inside its parent"
                    );
                }
                other => panic!("bad parent {other:?}"),
            }
        }
        assert_eq!(roots, 1, "{w}: one root span");
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_arr(&self) -> &[Value] {
        match self {
            Value::Arr(v) => v,
            _ => &[],
        }
    }
}

fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                loop {
                    self.ws();
                    let Value::Str(k) = self.value()? else {
                        return Err(format!("object key expected at byte {}", self.i));
                    };
                    self.eat(b':')?;
                    let v = self.value()?;
                    if m.insert(k.clone(), v).is_some() {
                        return Err(format!("duplicate key {k}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(m));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(v));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            self.i += 1;
                            return Ok(Value::Str(out));
                        }
                        Some(b'\\') => {
                            let esc = *self.s.get(self.i + 1).ok_or("bad escape")?;
                            self.i += 2;
                            match esc {
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                b'u' => {
                                    let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                        .map_err(|e| e.to_string())?;
                                    let code =
                                        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                    out.push(char::from_u32(code).unwrap_or('?'));
                                    self.i += 4;
                                }
                                c => out.push(c as char),
                            }
                        }
                        Some(_) => {
                            let start = self.i;
                            while self.i < self.s.len()
                                && self.s[self.i] != b'"'
                                && self.s[self.i] != b'\\'
                            {
                                self.i += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&self.s[start..self.i])
                                    .map_err(|e| e.to_string())?,
                            );
                        }
                    }
                }
            }
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}
