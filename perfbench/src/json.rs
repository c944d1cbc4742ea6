//! Just enough JSON output for the result line and the report file.

/// A JSON object under construction; keys keep insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// Insert an already-rendered JSON value.
    pub fn raw(&mut self, key: &str, value: &str) {
        self.0.push((key.to_string(), value.to_string()));
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.raw(key, &quote(value));
    }

    /// A number with every digit it has; integers print without a
    /// fraction, and non-finite values (never expected) as `null`.
    pub fn num(&mut self, key: &str, value: f64) {
        let v = if !value.is_finite() {
            "null".to_string()
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{}", value as i64)
        } else {
            format!("{value}")
        };
        self.raw(key, &v);
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.raw(key, if value { "true" } else { "false" });
    }

    pub fn null(&mut self, key: &str) {
        self.raw(key, "null");
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
