//! The one writer behind every `BENCH_*.json` report: a small ordered
//! JSON-object builder. Hand-rolled, since the workspace builds offline
//! with no serde. Keys keep insertion order, and each method fixes how
//! its value is printed, so a report's layout is the order of its calls.

use std::fmt::Display;

/// One field value, rendered on [`JsonObject::render`].
#[derive(Clone, Debug)]
enum Value {
    /// A scalar, already in its JSON form.
    Scalar(String),
    /// An object printed on one line.
    Inline(JsonObject),
    /// An object printed one field per line.
    Block(JsonObject),
    /// An array of objects, one per line, each on one line.
    Rows(Vec<JsonObject>),
}

/// An ordered JSON object under construction.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    fields: Vec<(&'static str, Value)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn field(mut self, key: &'static str, value: Value) -> Self {
        self.fields.push((key, value));
        self
    }

    /// A string field (quoted; `"` and `\` escaped).
    pub fn str(self, key: &'static str, value: &str) -> Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.field(key, Value::Scalar(format!("\"{escaped}\"")))
    }

    /// An integer or boolean field, printed as `Display` prints it.
    pub fn lit(self, key: &'static str, value: impl Display) -> Self {
        self.field(key, Value::Scalar(value.to_string()))
    }

    /// A float field with a fixed number of decimal places.
    pub fn float(self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.field(key, Value::Scalar(format!("{value:.decimals$}")))
    }

    /// A nested object printed on one line.
    pub fn inline(self, key: &'static str, value: JsonObject) -> Self {
        self.field(key, Value::Inline(value))
    }

    /// A nested object printed one field per line.
    pub fn block(self, key: &'static str, value: JsonObject) -> Self {
        self.field(key, Value::Block(value))
    }

    /// An array of objects, one per line.
    pub fn rows(self, key: &'static str, rows: Vec<JsonObject>) -> Self {
        self.field(key, Value::Rows(rows))
    }

    /// The object as a report file: one field per line, two-space
    /// indent, trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_block(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_block(&self, out: &mut String, indent: usize) {
        let pad = " ".repeat(indent + 2);
        out.push_str("{\n");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!("{pad}\"{key}\": "));
            match value {
                Value::Block(object) => object.write_block(out, indent + 2),
                Value::Rows(rows) => {
                    out.push_str("[\n");
                    for (j, row) in rows.iter().enumerate() {
                        if j > 0 {
                            out.push_str(",\n");
                        }
                        out.push_str(&format!("{pad}  "));
                        row.write_inline(out);
                    }
                    out.push_str(&format!("\n{pad}]"));
                }
                value => value.write_inline(out),
            }
        }
        out.push_str(&format!("\n{}}}", " ".repeat(indent)));
    }

    fn write_inline(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{key}\": "));
            value.write_inline(out);
        }
        out.push('}');
    }
}

impl Value {
    fn write_inline(&self, out: &mut String) {
        match self {
            Value::Scalar(text) => out.push_str(text),
            Value::Inline(object) | Value::Block(object) => object.write_inline(out),
            Value::Rows(rows) => {
                out.push('[');
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    row.write_inline(out);
                }
                out.push(']');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_blocks_rows_and_inline_objects_in_insertion_order() {
        let json = JsonObject::new()
            .str("name", "a \"quoted\" label")
            .lit("n", 4)
            .float("tps", 12.345, 1)
            .block(
                "inner",
                JsonObject::new().lit("ok", true).float("x", 2.0, 2),
            )
            .inline("row", JsonObject::new().lit("a", 1).lit("b", 2))
            .rows(
                "rows",
                vec![JsonObject::new().lit("i", 0), JsonObject::new().lit("i", 1)],
            )
            .render();
        let expected = "{\n  \"name\": \"a \\\"quoted\\\" label\",\n  \"n\": 4,\n  \
                        \"tps\": 12.3,\n  \"inner\": {\n    \"ok\": true,\n    \"x\": 2.00\n  },\n  \
                        \"row\": {\"a\": 1, \"b\": 2},\n  \"rows\": [\n    {\"i\": 0},\n    \
                        {\"i\": 1}\n  ]\n}\n";
        assert_eq!(json, expected);
    }
}
