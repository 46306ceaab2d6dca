//! A JSON value with a parser and a printer — all the benchmark needs to
//! write its results and read them back in `compare` without a crate.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// Compact one-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces per level).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "JSON cannot carry {n}");
                write!(out, "{n}").expect("writing to a String");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON: {msg} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.get(self.at) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .s
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.s[start..self.at])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.at += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.err("bad UTF-8"));
                }
                Some(b'\\') => {
                    let esc = *self
                        .s
                        .get(self.at + 1)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.at += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4);
                            let c = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.at += 4;
                            out.extend(c.to_string().as_bytes());
                        }
                        c => out.push(c), // \" \\ \/
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.err("expected , or ]"));
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.s.get(self.at) != Some(&b'"') {
                return Err(self.err("expected a key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.err("expected :"));
            }
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(",") {
                return Err(self.err("expected , or }"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back_to_the_same_value() {
        let doc = Json::obj([
            ("name", Json::str("a \"quoted\"\tname\n")),
            ("value", Json::Num(0.7423519)),
            ("count", Json::Num(125000.0)),
            ("tiny", Json::Num(1.5e-9)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "list",
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Arr(vec![]),
                    Json::obj::<&str>([]),
                ]),
            ),
        ]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert_eq!(parse(&doc.render_pretty()).unwrap(), doc);
        assert!(!doc.render().contains('\n'));
        assert_eq!(doc.get("value").and_then(Json::as_f64), Some(0.7423519));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "{\"a\":1} x", "\"open", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
