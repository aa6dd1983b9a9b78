//! MiniC# lexer.
//!
//! Tokenizes the C# subset the benchmark ports are written in. Positions
//! are tracked as line/column for diagnostics — porting two benchmark
//! suites means a lot of compile errors worth reading.
//!
//! Identifiers borrow the source text (`Tok::Ident(&'src str)`), and so
//! does every name the parser and codegen carry on: lexing allocates the
//! token vector and one `String` per string literal, nothing per
//! identifier.

use std::fmt;

/// A source position (1-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok<'src> {
    // literals
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    Str(String),
    True,
    False,
    Null,
    // identifiers & keywords
    Ident(&'src str),
    Class,
    Static,
    Virtual,
    Override,
    New,
    Return,
    If,
    Else,
    While,
    Do,
    For,
    Break,
    Continue,
    Throw,
    Try,
    Catch,
    Finally,
    Lock,
    This,
    Base,
    Void,
    IntKw,
    LongKw,
    FloatKw,
    DoubleKw,
    BoolKw,
    StringKw,
    ObjectKw,
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Colon,
    Question,
    // operators
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    PlusPlus,
    MinusMinus,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Not,
    Tilde,
    AndAnd,
    OrOr,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "int literal {v}"),
            Tok::Str(_) => write!(f, "string literal"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token with its position.
#[derive(Clone, Debug)]
pub struct Token<'src> {
    pub tok: Tok<'src>,
    pub pos: Pos,
}

/// Lexing error.
#[derive(Debug, Clone)]
pub struct LexError {
    pub pos: Pos,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

fn keyword(s: &str) -> Option<Tok<'static>> {
    Some(match s {
        "class" => Tok::Class,
        "static" => Tok::Static,
        "virtual" => Tok::Virtual,
        "override" => Tok::Override,
        "new" => Tok::New,
        "return" => Tok::Return,
        "if" => Tok::If,
        "else" => Tok::Else,
        "while" => Tok::While,
        "do" => Tok::Do,
        "for" => Tok::For,
        "break" => Tok::Break,
        "continue" => Tok::Continue,
        "throw" => Tok::Throw,
        "try" => Tok::Try,
        "catch" => Tok::Catch,
        "finally" => Tok::Finally,
        "lock" => Tok::Lock,
        "this" => Tok::This,
        "base" => Tok::Base,
        "void" => Tok::Void,
        "int" => Tok::IntKw,
        "long" => Tok::LongKw,
        "float" => Tok::FloatKw,
        "double" => Tok::DoubleKw,
        "bool" => Tok::BoolKw,
        "string" => Tok::StringKw,
        "object" => Tok::ObjectKw,
        "true" => Tok::True,
        "false" => Tok::False,
        "null" => Tok::Null,
        _ => return None,
    })
}

/// Is the word an ignored modifier? Accessibility modifiers are accepted
/// and dropped, easing direct ports of the Java Grande sources.
fn ignored_modifier(s: &str) -> bool {
    matches!(s, "public" | "private" | "internal" | "protected" | "sealed")
}

/// Tokenize a full source file.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    macro_rules! pos {
        () => {
            Pos { line, col }
        };
    }
    macro_rules! err {
        ($p:expr, $($a:tt)*) => {
            return Err(LexError { pos: $p, message: format!($($a)*) })
        };
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = pos!();
        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                col += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        err!(start, "unterminated block comment");
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
            '"' => {
                i += 1;
                col += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        err!(start, "unterminated string literal");
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            col += 1;
                            break;
                        }
                        b'\\' => {
                            let esc = *bytes.get(i + 1).unwrap_or(&b'?');
                            s.push(match esc {
                                b'n' => '\n',
                                b't' => '\t',
                                b'r' => '\r',
                                b'\\' => '\\',
                                b'"' => '"',
                                b'0' => '\0',
                                other => err!(pos!(), "bad escape \\{}", other as char),
                            });
                            i += 2;
                            col += 2;
                        }
                        b'\n' => err!(start, "newline in string literal"),
                        b => {
                            s.push(b as char);
                            i += 1;
                            col += 1;
                        }
                    }
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    pos: start,
                });
            }
            c if c.is_ascii_digit() => {
                let begin = i;
                let mut is_float = false;
                if c == '0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X')) {
                    i += 2;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_hexdigit() {
                        i += 1;
                    }
                    let text = &src[begin + 2..i];
                    let (tok, width) =
                        if matches!(bytes.get(i), Some(b'L') | Some(b'l')) {
                            i += 1;
                            (
                                i64::from_str_radix(text, 16).map(Tok::Long).map_err(|_| ()),
                                i - begin,
                            )
                        } else {
                            (
                                u32::from_str_radix(text, 16)
                                    .map(|v| Tok::Int(v as i32))
                                    .map_err(|_| ()),
                                i - begin,
                            )
                        };
                    let tok = match tok {
                        Ok(t) => t,
                        Err(()) => err!(start, "bad hex literal"),
                    };
                    out.push(Token { tok, pos: start });
                    col += width as u32;
                    continue;
                }
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' && matches!(bytes.get(i + 1), Some(d) if d.is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if matches!(bytes.get(j), Some(b'+') | Some(b'-')) {
                        j += 1;
                    }
                    if matches!(bytes.get(j), Some(d) if d.is_ascii_digit()) {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[begin..i];
                let tok = match bytes.get(i) {
                    Some(b'L') | Some(b'l') if !is_float => {
                        i += 1;
                        match text.parse::<i64>() {
                            Ok(v) => Tok::Long(v),
                            Err(_) => err!(start, "bad long literal {text}"),
                        }
                    }
                    Some(b'f') | Some(b'F') => {
                        i += 1;
                        match text.parse::<f32>() {
                            Ok(v) => Tok::Float(v),
                            Err(_) => err!(start, "bad float literal {text}"),
                        }
                    }
                    Some(b'd') | Some(b'D') => {
                        i += 1;
                        match text.parse::<f64>() {
                            Ok(v) => Tok::Double(v),
                            Err(_) => err!(start, "bad double literal {text}"),
                        }
                    }
                    _ if is_float => match text.parse::<f64>() {
                        Ok(v) => Tok::Double(v),
                        Err(_) => err!(start, "bad double literal {text}"),
                    },
                    _ => match text.parse::<i64>() {
                        // Int literals that overflow i32 but fit i64 are
                        // accepted as int with wrapping only if exactly
                        // i32::MIN's magnitude case; otherwise error.
                        Ok(v) if v >= i32::MIN as i64 && v <= i32::MAX as i64 => {
                            Tok::Int(v as i32)
                        }
                        Ok(v) => err!(start, "int literal {v} out of range (use L suffix)"),
                        Err(_) => err!(start, "bad int literal {text}"),
                    },
                };
                col += (i - begin) as u32;
                out.push(Token { tok, pos: start });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let begin = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[begin..i];
                col += (i - begin) as u32;
                if ignored_modifier(word) {
                    continue;
                }
                let tok = keyword(word).unwrap_or(Tok::Ident(word));
                out.push(Token { tok, pos: start });
            }
            _ => {
                // operators / punctuation
                let two = |a: u8| bytes.get(i + 1) == Some(&a);
                let (tok, width) = match c {
                    '(' => (Tok::LParen, 1),
                    ')' => (Tok::RParen, 1),
                    '{' => (Tok::LBrace, 1),
                    '}' => (Tok::RBrace, 1),
                    '[' => (Tok::LBracket, 1),
                    ']' => (Tok::RBracket, 1),
                    ';' => (Tok::Semi, 1),
                    ',' => (Tok::Comma, 1),
                    '.' => (Tok::Dot, 1),
                    ':' => (Tok::Colon, 1),
                    '?' => (Tok::Question, 1),
                    '+' if two(b'+') => (Tok::PlusPlus, 2),
                    '+' if two(b'=') => (Tok::PlusAssign, 2),
                    '+' => (Tok::Plus, 1),
                    '-' if two(b'-') => (Tok::MinusMinus, 2),
                    '-' if two(b'=') => (Tok::MinusAssign, 2),
                    '-' => (Tok::Minus, 1),
                    '*' if two(b'=') => (Tok::StarAssign, 2),
                    '*' => (Tok::Star, 1),
                    '/' if two(b'=') => (Tok::SlashAssign, 2),
                    '/' => (Tok::Slash, 1),
                    '%' if two(b'=') => (Tok::PercentAssign, 2),
                    '%' => (Tok::Percent, 1),
                    '!' if two(b'=') => (Tok::Ne, 2),
                    '!' => (Tok::Not, 1),
                    '~' => (Tok::Tilde, 1),
                    '&' if two(b'&') => (Tok::AndAnd, 2),
                    '&' => (Tok::Amp, 1),
                    '|' if two(b'|') => (Tok::OrOr, 2),
                    '|' => (Tok::Pipe, 1),
                    '^' => (Tok::Caret, 1),
                    '<' if two(b'<') => (Tok::Shl, 2),
                    '<' if two(b'=') => (Tok::Le, 2),
                    '<' => (Tok::Lt, 1),
                    '>' if two(b'>') => (Tok::Shr, 2),
                    '>' if two(b'=') => (Tok::Ge, 2),
                    '>' => (Tok::Gt, 1),
                    '=' if two(b'=') => (Tok::Eq, 2),
                    '=' => (Tok::Assign, 1),
                    other => err!(start, "unexpected character {other:?}"),
                };
                i += width;
                col += width as u32;
                out.push(Token { tok, pos: start });
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        pos: pos!(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 0x10 7L 2.5 1e3 3.5f 1.0d 2147483647"),
            vec![
                Tok::Int(42),
                Tok::Int(16),
                Tok::Long(7),
                Tok::Double(2.5),
                Tok::Double(1000.0),
                Tok::Float(3.5),
                Tok::Double(1.0),
                Tok::Int(i32::MAX),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn overflowing_int_rejected() {
        assert!(lex("2147483648").is_err());
        assert!(lex("2147483648L").is_ok());
    }

    #[test]
    fn operators_and_punct() {
        assert_eq!(
            toks("a += b << 2 >= c && !d"),
            vec![
                Tok::Ident("a"),
                Tok::PlusAssign,
                Tok::Ident("b"),
                Tok::Shl,
                Tok::Int(2),
                Tok::Ge,
                Tok::Ident("c"),
                Tok::AndAnd,
                Tok::Not,
                Tok::Ident("d"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn keywords_and_modifiers() {
        assert_eq!(
            toks("public static void Main"),
            vec![Tok::Static, Tok::Void, Tok::Ident("Main"), Tok::Eof]
        );
    }

    #[test]
    fn comments_and_strings() {
        assert_eq!(
            toks("// line\n/* block\nspans */ \"hi\\n\""),
            vec![Tok::Str("hi\n".into()), Tok::Eof]
        );
    }

    #[test]
    fn positions_track_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("@").is_err());
        assert!(lex("/* open").is_err());
    }
}
