//! Control-channel commands and replies.
//!
//! A line-oriented text protocol in the FTP tradition, carrying the subset
//! GridFTP striped transfers need:
//!
//! * `OPTS PARALLELISM <np>` — number of data channels the client will open.
//! * `SPAS` — striped passive: the server opens `np` data listeners and
//!   returns their ports.
//! * `STOR <name> <size>` — begin receiving a named logical file.
//! * `RETR <name> <size>` — begin sending a named logical file.
//! * `MREQ` — request a restart marker (received byte ranges).
//! * `QUIT` — close the session.
//!
//! Replies carry an FTP-style numeric code and free text. Parsing is strict:
//! malformed lines are surfaced, never guessed at.

use std::fmt;
use std::str::FromStr;

/// A client→server command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `OPTS PARALLELISM <np>`
    OptsParallelism(u32),
    /// `SPAS` — open striped passive data listeners.
    Spas,
    /// `STOR <name> <size>`
    Stor {
        /// Logical file name (no spaces).
        name: String,
        /// Total size in bytes.
        size: u64,
    },
    /// `RETR <name> <size>` — download: the server sends `size` synthetic
    /// bytes over the data channels.
    Retr {
        /// Logical file name (no spaces).
        name: String,
        /// Total size in bytes.
        size: u64,
    },
    /// `MREQ` — restart-marker request.
    MarkerRequest,
    /// `QUIT`
    Quit,
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::OptsParallelism(np) => write!(f, "OPTS PARALLELISM {np}"),
            Command::Spas => write!(f, "SPAS"),
            Command::Stor { name, size } => write!(f, "STOR {name} {size}"),
            Command::Retr { name, size } => write!(f, "RETR {name} {size}"),
            Command::MarkerRequest => write!(f, "MREQ"),
            Command::Quit => write!(f, "QUIT"),
        }
    }
}

/// Command parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol parse error: {}", self.0)
    }
}
impl std::error::Error for ParseError {}

impl FromStr for Command {
    type Err = ParseError;

    fn from_str(line: &str) -> Result<Self, ParseError> {
        let mut parts = line.split_whitespace();
        let verb = parts
            .next()
            .ok_or_else(|| ParseError("empty command line".into()))?;
        let cmd = match verb.to_ascii_uppercase().as_str() {
            "OPTS" => {
                let what = parts
                    .next()
                    .ok_or_else(|| ParseError("OPTS needs an option name".into()))?;
                if !what.eq_ignore_ascii_case("PARALLELISM") {
                    return Err(ParseError(format!("unsupported option: {what}")));
                }
                let np: u32 = parts
                    .next()
                    .ok_or_else(|| ParseError("OPTS PARALLELISM needs a value".into()))?
                    .parse()
                    .map_err(|_| ParseError("parallelism must be an integer".into()))?;
                if np == 0 {
                    return Err(ParseError("parallelism must be positive".into()));
                }
                Command::OptsParallelism(np)
            }
            "SPAS" => Command::Spas,
            "STOR" => {
                let name = parts
                    .next()
                    .ok_or_else(|| ParseError("STOR needs a name".into()))?
                    .to_string();
                let size: u64 = parts
                    .next()
                    .ok_or_else(|| ParseError("STOR needs a size".into()))?
                    .parse()
                    .map_err(|_| ParseError("size must be an integer".into()))?;
                Command::Stor { name, size }
            }
            "RETR" => {
                let name = parts
                    .next()
                    .ok_or_else(|| ParseError("RETR needs a name".into()))?
                    .to_string();
                let size: u64 = parts
                    .next()
                    .ok_or_else(|| ParseError("RETR needs a size".into()))?
                    .parse()
                    .map_err(|_| ParseError("size must be an integer".into()))?;
                Command::Retr { name, size }
            }
            "MREQ" => Command::MarkerRequest,
            "QUIT" => Command::Quit,
            other => return Err(ParseError(format!("unknown command: {other}"))),
        };
        if parts.next().is_some() {
            return Err(ParseError(format!("trailing tokens after {verb}")));
        }
        Ok(cmd)
    }
}

/// A server→client reply: `<code> <text>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// FTP-style numeric code.
    pub code: u16,
    /// Free-form text (single line).
    pub text: String,
}

impl Reply {
    /// `200`-class success.
    pub fn ok(text: impl Into<String>) -> Self {
        Reply {
            code: 200,
            text: text.into(),
        }
    }

    /// `229` striped-passive reply carrying the data ports.
    pub fn spas(ports: &[u16]) -> Self {
        let list = ports
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(",");
        Reply {
            code: 229,
            text: format!("Entering striped passive mode ports={list}"),
        }
    }

    /// Parse the port list out of a `229` reply.
    pub fn parse_spas_ports(&self) -> Result<Vec<u16>, ParseError> {
        if self.code != 229 {
            return Err(ParseError(format!("expected 229, got {}", self.code)));
        }
        let list = self
            .text
            .split("ports=")
            .nth(1)
            .ok_or_else(|| ParseError("229 reply missing ports=".into()))?;
        list.split(',')
            .map(|p| {
                p.trim()
                    .parse::<u16>()
                    .map_err(|_| ParseError(format!("bad port: {p}")))
            })
            .collect()
    }

    /// `226` transfer-complete reply carrying byte count and digest.
    pub fn complete(bytes: u64, digest: u64) -> Self {
        Reply {
            code: 226,
            text: format!("Transfer complete bytes={bytes} digest={digest:016x}"),
        }
    }

    /// Parse `(bytes, digest)` out of a `226` reply.
    pub fn parse_complete(&self) -> Result<(u64, u64), ParseError> {
        if self.code != 226 {
            return Err(ParseError(format!("expected 226, got {}", self.code)));
        }
        let mut bytes = None;
        let mut digest = None;
        for tok in self.text.split_whitespace() {
            if let Some(v) = tok.strip_prefix("bytes=") {
                bytes = v.parse::<u64>().ok();
            } else if let Some(v) = tok.strip_prefix("digest=") {
                digest = u64::from_str_radix(v, 16).ok();
            }
        }
        match (bytes, digest) {
            (Some(b), Some(d)) => Ok((b, d)),
            _ => Err(ParseError(format!("malformed 226 reply: {}", self.text))),
        }
    }

    /// `111` restart marker reply.
    pub fn marker(ranges: &crate::rangeset::RangeSet) -> Self {
        Reply {
            code: 111,
            text: format!("Restart marker {}", ranges.to_marker()),
        }
    }

    /// Parse a [`crate::RangeSet`] out of a `111` reply.
    pub fn parse_marker(&self) -> Result<crate::rangeset::RangeSet, ParseError> {
        if self.code != 111 {
            return Err(ParseError(format!("expected 111, got {}", self.code)));
        }
        let marker = self
            .text
            .strip_prefix("Restart marker")
            .map(str::trim)
            .ok_or_else(|| ParseError("malformed 111 reply".into()))?;
        crate::rangeset::RangeSet::from_marker(marker)
            .ok_or_else(|| ParseError(format!("bad marker: {marker}")))
    }

    /// `5xx` error reply.
    pub fn error(text: impl Into<String>) -> Self {
        Reply {
            code: 500,
            text: text.into(),
        }
    }

    /// True for 1xx–3xx codes.
    pub fn is_success(&self) -> bool {
        self.code < 400
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.text)
    }
}

impl FromStr for Reply {
    type Err = ParseError;
    fn from_str(line: &str) -> Result<Self, ParseError> {
        let line = line.trim_end();
        let (code, text) = line
            .split_once(' ')
            .ok_or_else(|| ParseError(format!("malformed reply: {line}")))?;
        let code: u16 = code
            .parse()
            .map_err(|_| ParseError(format!("bad reply code: {code}")))?;
        Ok(Reply {
            code,
            text: text.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rangeset::RangeSet;

    #[test]
    fn command_round_trips() {
        for cmd in [
            Command::OptsParallelism(8),
            Command::Spas,
            Command::Stor {
                name: "data.bin".into(),
                size: 1 << 30,
            },
            Command::Retr {
                name: "data.bin".into(),
                size: 4096,
            },
            Command::MarkerRequest,
            Command::Quit,
        ] {
            let line = cmd.to_string();
            assert_eq!(line.parse::<Command>().unwrap(), cmd, "line: {line}");
        }
    }

    #[test]
    fn command_parse_is_strict() {
        assert!("".parse::<Command>().is_err());
        assert!("FOO".parse::<Command>().is_err());
        assert!("OPTS".parse::<Command>().is_err());
        assert!("OPTS PARALLELISM".parse::<Command>().is_err());
        assert!("OPTS PARALLELISM zero".parse::<Command>().is_err());
        assert!("OPTS PARALLELISM 0".parse::<Command>().is_err());
        assert!("OPTS BUFFER 5".parse::<Command>().is_err());
        assert!("STOR name".parse::<Command>().is_err());
        assert!("STOR name ten".parse::<Command>().is_err());
        assert!("QUIT now".parse::<Command>().is_err(), "trailing tokens");
    }

    #[test]
    fn case_insensitive_verbs() {
        assert_eq!("quit".parse::<Command>().unwrap(), Command::Quit);
        assert_eq!(
            "opts parallelism 4".parse::<Command>().unwrap(),
            Command::OptsParallelism(4)
        );
    }

    #[test]
    fn spas_reply_round_trip() {
        let r = Reply::spas(&[50001, 50002, 50003]);
        assert_eq!(r.code, 229);
        let parsed: Reply = r.to_string().parse().unwrap();
        assert_eq!(
            parsed.parse_spas_ports().unwrap(),
            vec![50001, 50002, 50003]
        );
    }

    #[test]
    fn complete_reply_round_trip() {
        let r = Reply::complete(123456, 0xDEADBEEF);
        let parsed: Reply = r.to_string().parse().unwrap();
        assert_eq!(parsed.parse_complete().unwrap(), (123456, 0xDEADBEEF));
    }

    #[test]
    fn marker_reply_round_trip() {
        let mut set = RangeSet::new();
        set.insert(0, 100);
        set.insert(200, 300);
        let r = Reply::marker(&set);
        let parsed: Reply = r.to_string().parse().unwrap();
        assert_eq!(parsed.parse_marker().unwrap(), set);
    }

    #[test]
    fn empty_marker_parses() {
        let r = Reply::marker(&RangeSet::new());
        let parsed: Reply = r.to_string().parse().unwrap();
        assert!(parsed.parse_marker().unwrap().is_empty());
    }

    #[test]
    fn wrong_code_rejected() {
        let r = Reply::ok("hello");
        assert!(r.parse_spas_ports().is_err());
        assert!(r.parse_complete().is_err());
        assert!(r.parse_marker().is_err());
        assert!(r.is_success());
        assert!(!Reply::error("nope").is_success());
    }
}
