//! The client side of the `pncheckd/1` protocol: request lines out, one
//! header line plus exactly `bytes` payload bytes back.

use std::io::{self, BufRead};

use pnew_detector::server::{parse_json, JsonNode};

/// Quotes `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|p| json_string(p)).collect();
    format!("[{}]", quoted.join(","))
}

/// An `analyze` request line (no trailing newline).
pub fn analyze_line(id: u64, paths: &[String]) -> String {
    format!("{{\"op\":\"analyze\",\"id\":{id},\"paths\":{}}}", json_list(paths))
}

/// A `delta` request line, with the client's `changed` hint when given.
pub fn delta_line(id: u64, paths: &[String], changed: Option<&[String]>) -> String {
    match changed {
        Some(changed) => format!(
            "{{\"op\":\"delta\",\"id\":{id},\"paths\":{},\"changed\":{}}}",
            json_list(paths),
            json_list(changed)
        ),
        None => format!("{{\"op\":\"delta\",\"id\":{id},\"paths\":{}}}", json_list(paths)),
    }
}

/// A bare `ping` / `stats` / `shutdown` request line.
pub fn op_line(id: u64, op: &str) -> String {
    format!("{{\"op\":\"{op}\",\"id\":{id}}}")
}

/// A field of a parsed JSON object, by name.
pub fn field<'a>(fields: &'a [(String, JsonNode)], name: &str) -> Option<&'a JsonNode> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// One framed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The header fields, in wire order.
    pub header: Vec<(String, JsonNode)>,
    /// Exactly the `bytes` payload bytes the header announced.
    pub payload: String,
}

impl Reply {
    /// A header field by name.
    pub fn field(&self, name: &str) -> Option<&JsonNode> {
        field(&self.header, name)
    }

    /// `true` when the header says `"ok":true`.
    pub fn ok(&self) -> bool {
        self.field("ok") == Some(&JsonNode::Bool(true))
    }

    /// A non-negative integer field of the header's `delta` object.
    pub fn delta_counter(&self, name: &str) -> u64 {
        match self.field("delta") {
            Some(JsonNode::Obj(fields)) => field(fields, name).map_or(0, as_u64),
            _ => 0,
        }
    }
}

/// A JSON integer as `u64` (0 for anything else).
pub fn as_u64(node: &JsonNode) -> u64 {
    match node {
        JsonNode::Int(n) if *n >= 0 => *n as u64,
        _ => 0,
    }
}

/// Reads one reply: a header line, then exactly `bytes` payload bytes.
/// `line` is a reusable buffer for the header. A clean EOF before the
/// header, a malformed header, or a short payload is an error.
pub fn read_reply(reader: &mut impl BufRead, line: &mut String) -> io::Result<Reply> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let header = match parse_json(line.trim_end_matches(['\n', '\r'])) {
        Ok(JsonNode::Obj(fields)) => fields,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed reply header: {}", line.trim_end()),
            ))
        }
    };
    let bytes = match field(&header, "bytes") {
        Some(JsonNode::Int(n)) if *n >= 0 => *n as usize,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply header without bytes: {}", line.trim_end()),
            ))
        }
    };
    let mut payload = vec![0u8; bytes];
    reader.read_exact(&mut payload)?;
    let payload = String::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "payload is not UTF-8"))?;
    Ok(Reply { header, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn reads_header_and_exact_payload_back_to_back() {
        let wire =
            b"{\"ok\":true,\"op\":\"analyze\",\"bytes\":5}\nhello{\"ok\":false,\"bytes\":0}\n\
                     {\"ok\":true,\"bytes\":3}\na\nb";
        // A tiny buffer forces the payload across many refills.
        let mut reader = BufReader::with_capacity(4, &wire[..]);
        let mut line = String::new();
        let first = read_reply(&mut reader, &mut line).unwrap();
        assert!(first.ok());
        assert_eq!(first.payload, "hello");
        assert_eq!(first.field("op"), Some(&JsonNode::Str("analyze".into())));
        let second = read_reply(&mut reader, &mut line).unwrap();
        assert!(!second.ok());
        assert_eq!(second.payload, "");
        // Newlines inside the payload do not end it early.
        let third = read_reply(&mut reader, &mut line).unwrap();
        assert_eq!(third.payload, "a\nb");
        let eof = read_reply(&mut reader, &mut line).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn short_payloads_and_bad_headers_are_errors() {
        let mut line = String::new();
        let short = read_reply(&mut &b"{\"ok\":true,\"bytes\":9}\nabc"[..], &mut line);
        assert_eq!(short.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        let garbage = read_reply(&mut &b"not json\n"[..], &mut line);
        assert_eq!(garbage.unwrap_err().kind(), io::ErrorKind::InvalidData);
        let no_bytes = read_reply(&mut &b"{\"ok\":true}\n"[..], &mut line);
        assert_eq!(no_bytes.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn delta_counters_come_from_the_nested_object() {
        let wire = b"{\"ok\":true,\"delta\":{\"cone_functions\":3,\"changed\":1},\"bytes\":0}\n";
        let reply = read_reply(&mut &wire[..], &mut String::new()).unwrap();
        assert_eq!(reply.delta_counter("cone_functions"), 3);
        assert_eq!(reply.delta_counter("missing"), 0);
    }

    #[test]
    fn request_lines_are_single_line_json() {
        let paths = vec!["/d/a \"b\".pnx".to_owned(), "/d/c\n.pnx".to_owned()];
        for line in [
            analyze_line(7, &paths),
            delta_line(8, &paths, Some(&paths[..1])),
            delta_line(9, &paths, None),
            op_line(10, "stats"),
        ] {
            assert!(!line.contains('\n'));
            assert!(matches!(parse_json(&line), Ok(JsonNode::Obj(_))), "{line}");
        }
    }
}
