//! Minimal JSON writer (the workspace has no dependencies). The parser
//! that checks the round trip lives in the tests.

use std::fmt::{self, Write};

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // `{}` prints the shortest decimal that reads back to the same
            // f64, i.e. every digit the measurement has
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod parser {
    use super::Json;

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

        fn eat(&mut self, lit: &str) -> bool {
            if self.s[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Json {
            self.ws();
            let c = self.s[self.i];
            let v = match c {
                _ if self.eat("null") => Json::Null,
                _ if self.eat("true") => Json::Bool(true),
                _ if self.eat("false") => Json::Bool(false),
                b'"' => Json::Str(self.string()),
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if !self.eat("]") {
                        loop {
                            items.push(self.value());
                            self.ws();
                            if self.eat("]") {
                                break;
                            }
                            assert!(self.eat(","), "expected , in array");
                        }
                    }
                    Json::Arr(items)
                }
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if !self.eat("}") {
                        loop {
                            self.ws();
                            let k = self.string();
                            self.ws();
                            assert!(self.eat(":"), "expected : in object");
                            fields.push((k, self.value()));
                            self.ws();
                            if self.eat("}") {
                                break;
                            }
                            assert!(self.eat(","), "expected , in object");
                        }
                    }
                    Json::Obj(fields)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    Json::Num(text.parse().expect("number"))
                }
            };
            self.ws();
            v
        }

        fn string(&mut self) -> String {
            assert!(self.eat("\""), "expected string");
            let mut out = String::new();
            loop {
                let rest = std::str::from_utf8(&self.s[self.i..]).unwrap();
                let c = rest.chars().next().expect("unterminated string");
                self.i += c.len_utf8();
                match c {
                    '"' => return out,
                    '\\' => {
                        let e = self.s[self.i];
                        self.i += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                                self.i += 4;
                                let code = u32::from_str_radix(hex, 16).unwrap();
                                out.push(char::from_u32(code).unwrap());
                            }
                            other => panic!("bad escape {other}"),
                        }
                    }
                    c => out.push(c),
                }
            }
        }
    }

    /// Parse one JSON document; panics on malformed input.
    pub fn parse(s: &str) -> Json {
        let mut p = Parser { s: s.as_bytes(), i: 0 };
        let v = p.value();
        assert_eq!(p.i, s.len(), "trailing input");
        v
    }
}

#[cfg(test)]
pub use parser::parse;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("nothing", Json::Null),
            (
                "metrics",
                Json::obj([
                    (
                        "bfs_mteps",
                        Json::obj([
                            ("value", Json::Num(14.837_261_9)),
                            ("unit", Json::Str("MTEPS".into())),
                        ]),
                    ),
                    ("tiny", Json::Num(1.5e-9)),
                    ("huge", Json::Num(3.0e21)),
                    ("neg", Json::Num(-0.125)),
                ]),
            ),
            ("text", Json::Str("quote \" slash \\ nl \n tab \t bell \u{7} é".into())),
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![]), Json::obj::<&str>([])])),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text), doc);
        assert!(!text.contains('\n'), "one line: {text}");
    }

    #[test]
    fn numbers_keep_every_digit() {
        for x in [0.1 + 0.2, 1.0 / 3.0, 123_456.789_012_345, f64::MIN_POSITIVE, 1e300] {
            assert_eq!(parse(&Json::Num(x).to_string()), Json::Num(x));
        }
        assert_eq!(Json::Num(2.0).to_string(), "2");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
