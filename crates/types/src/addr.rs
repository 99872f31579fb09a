//! Resource naming: IaC-level addresses and cloud-level ids.
//!
//! The paper's central observation is the gap between "what cloud users
//! perceive (the IaC-level configuration) and what they actually receive (the
//! cloud-level infrastructure)". These two name spaces are kept distinct on
//! purpose: a [`ResourceAddr`] names a block in the user's program
//! (`aws_virtual_machine.vm1[2]`), a [`ResourceId`] names the provisioned
//! object the provider hands back (`az-vm-0004`). The state database owns the
//! mapping between them.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// The type name of a resource, e.g. `aws_virtual_machine`.
///
/// By convention (shared with Terraform) the prefix up to the first `_` is
/// the provider name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ResourceTypeName(pub String);

impl ResourceTypeName {
    pub fn new(name: impl Into<String>) -> Self {
        ResourceTypeName(name.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Provider prefix of the type name: `aws_virtual_machine` → `aws`.
    pub fn provider_prefix(&self) -> &str {
        self.0.split('_').next().unwrap_or(&self.0)
    }

    /// Type name without the provider prefix:
    /// `aws_virtual_machine` → `virtual_machine`.
    pub fn short_name(&self) -> &str {
        match self.0.find('_') {
            Some(i) => &self.0[i + 1..],
            None => &self.0,
        }
    }
}

impl fmt::Display for ResourceTypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ResourceTypeName {
    fn from(s: &str) -> Self {
        ResourceTypeName(s.to_owned())
    }
}

/// The per-instance key of a resource created via `count` or `for_each`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceKey {
    /// Singleton resource (no `count` / `for_each`).
    None,
    /// `count = n` instance index.
    Index(u32),
    /// `for_each` map key.
    Key(String),
}

impl fmt::Display for ResourceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKey::None => Ok(()),
            ResourceKey::Index(i) => write!(f, "[{i}]"),
            ResourceKey::Key(k) => write!(f, "[{k:?}]"),
        }
    }
}

/// An IaC-level resource address: `type.name[key]`, optionally inside a
/// module path (`module.network.aws_subnet.private[0]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceAddr {
    /// Module path, outermost first. Empty for root-module resources.
    pub module_path: Vec<String>,
    /// Resource type, e.g. `aws_virtual_machine`.
    pub rtype: ResourceTypeName,
    /// Block label, e.g. `vm1`.
    pub name: String,
    /// Instance key for `count`/`for_each` expansions.
    pub key: ResourceKey,
}

impl ResourceAddr {
    /// Address of a singleton resource in the root module.
    pub fn root(rtype: impl Into<ResourceTypeName>, name: impl Into<String>) -> Self {
        ResourceAddr {
            module_path: Vec::new(),
            rtype: rtype.into(),
            name: name.into(),
            key: ResourceKey::None,
        }
    }

    /// Same address with a `count` index key.
    pub fn indexed(mut self, i: u32) -> Self {
        self.key = ResourceKey::Index(i);
        self
    }

    /// Same address with a `for_each` string key.
    pub fn keyed(mut self, k: impl Into<String>) -> Self {
        self.key = ResourceKey::Key(k.into());
        self
    }

    /// Same address nested under a module.
    pub fn in_module(mut self, module: impl Into<String>) -> Self {
        self.module_path.insert(0, module.into());
        self
    }

    /// The `type.name` pair without key or module path — the identity of the
    /// *block* this instance came from.
    pub fn block_id(&self) -> String {
        format!("{}.{}", self.rtype, self.name)
    }
}

impl fmt::Display for ResourceAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.module_path {
            write!(f, "module.{m}.")?;
        }
        write!(f, "{}.{}{}", self.rtype, self.name, self.key)
    }
}

/// Parse errors for [`ResourceAddr::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid resource address: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for ResourceAddr {
    type Err = AddrParseError;

    /// Parse `module.net.aws_subnet.s[0]` style addresses.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (body, key) = match s.find('[') {
            Some(open) => {
                let close = s
                    .rfind(']')
                    .ok_or_else(|| AddrParseError(format!("{s}: unclosed '['")))?;
                let inner = &s[open + 1..close];
                let quoted = inner.len() >= 2 && inner.starts_with('"') && inner.ends_with('"');
                let key = if quoted {
                    let unquoted = &inner[1..inner.len() - 1];
                    let key = unescape(unquoted)
                        .ok_or_else(|| AddrParseError(format!("{s}: bad escape in key")))?;
                    ResourceKey::Key(key)
                } else if let Ok(i) = inner.parse::<u32>() {
                    ResourceKey::Index(i)
                } else {
                    ResourceKey::Key(inner.to_owned())
                };
                (&s[..open], key)
            }
            None => (s, ResourceKey::None),
        };
        let mut parts: Vec<&str> = body.split('.').collect();
        let mut module_path = Vec::new();
        while parts.len() >= 2 && parts[0] == "module" {
            module_path.push(parts[1].to_owned());
            parts.drain(..2);
        }
        if parts.len() != 2 || parts[0].is_empty() || parts[1].is_empty() {
            return Err(AddrParseError(format!(
                "{s}: expected '<type>.<name>' after module path"
            )));
        }
        Ok(ResourceAddr {
            module_path,
            rtype: ResourceTypeName::new(parts[0]),
            name: parts[1].to_owned(),
            key,
        })
    }
}

/// The key a `{:?}` of a `str` escaped, without its quotes: the inverse of
/// [`ResourceKey`]'s `Display`, so an address survives a round trip through
/// its text. `None` for an escape `{:?}` does not write.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            '0' => '\0',
            c @ ('\\' | '"' | '\'') => c,
            'u' => {
                let rest = chars.as_str().strip_prefix('{')?;
                let (hex, tail) = rest.split_once('}')?;
                let c = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                chars = tail.chars();
                c
            }
            _ => return None,
        });
    }
    Some(out)
}

/// A cloud-level resource id assigned by the provider at creation time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ResourceId(pub String);

impl ResourceId {
    pub fn new(id: impl Into<String>) -> Self {
        ResourceId(id.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_name_prefix_split() {
        let t = ResourceTypeName::new("aws_network_interface");
        assert_eq!(t.provider_prefix(), "aws");
        assert_eq!(t.short_name(), "network_interface");
        let bare = ResourceTypeName::new("thing");
        assert_eq!(bare.provider_prefix(), "thing");
        assert_eq!(bare.short_name(), "thing");
    }

    #[test]
    fn addr_display_round_trip() {
        let a = ResourceAddr::root(ResourceTypeName::new("aws_subnet"), "private").indexed(3);
        let s = a.to_string();
        assert_eq!(s, "aws_subnet.private[3]");
        let parsed: ResourceAddr = s.parse().expect("parse");
        assert_eq!(parsed, a);
    }

    #[test]
    fn addr_with_module_path() {
        let a = ResourceAddr::root(ResourceTypeName::new("aws_vpc"), "main")
            .in_module("network")
            .in_module("prod");
        assert_eq!(a.to_string(), "module.prod.module.network.aws_vpc.main");
        let parsed: ResourceAddr = a.to_string().parse().expect("parse");
        assert_eq!(parsed, a);
    }

    #[test]
    fn addr_for_each_key() {
        let a = ResourceAddr::root(ResourceTypeName::new("aws_vm"), "web").keyed("eu");
        assert_eq!(a.to_string(), "aws_vm.web[\"eu\"]");
        let parsed: ResourceAddr = a.to_string().parse().expect("parse");
        assert_eq!(parsed, a);
        for key in [
            "a\"b",
            "x\\y",
            "\"",
            "\\",
            "]",
            "[0]",
            "7",
            "",
            "\u{1}\u{301}é",
        ] {
            let a = ResourceAddr::root(ResourceTypeName::new("aws_vm"), "web").keyed(key);
            let parsed: ResourceAddr = a.to_string().parse().expect("parse");
            assert_eq!(parsed, a, "{a}");
        }
        let unquoted: ResourceAddr = "aws_vm.web[eu]".parse().expect("parse");
        assert_eq!(unquoted.key, ResourceKey::Key("eu".to_owned()));
        assert!("aws_vm.web[\"a\\q\"]".parse::<ResourceAddr>().is_err());
    }

    proptest::proptest! {
        /// Parsing is the exact inverse of `Display`, whatever a
        /// `for_each` key holds: quotes, backslashes, brackets, control
        /// characters, digits.
        #[test]
        fn a_keyed_addr_round_trips(key in "(\\PC|[\"\\\\\\[\\]\n\t\r\u{0}\u{7f}\u{301}0-9])*") {
            let a = ResourceAddr::root(ResourceTypeName::new("aws_vm"), "web")
                .keyed(key)
                .in_module("net");
            let parsed: ResourceAddr = a.to_string().parse().expect("parse");
            proptest::prop_assert_eq!(parsed, a);
        }
    }

    #[test]
    fn addr_parse_rejects_garbage() {
        assert!("".parse::<ResourceAddr>().is_err());
        assert!("justonepart".parse::<ResourceAddr>().is_err());
        assert!("a.b[".parse::<ResourceAddr>().is_err());
    }

    #[test]
    fn block_id_ignores_key() {
        let a = ResourceAddr::root(ResourceTypeName::new("aws_vm"), "web").indexed(7);
        assert_eq!(a.block_id(), "aws_vm.web");
    }
}
