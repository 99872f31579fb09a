//! Provider and region identities for the simulated multi-cloud.
//!
//! The paper's examples span AWS and Azure (and cite GCP audit logs); the
//! simulated substrate models all three so that cross-provider experiments
//! (e.g. sky-style multi-cloud programs) exercise realistic heterogeneity.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A cloud provider in the simulated multi-cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Provider {
    /// AWS-like provider (`aws_*` resource types).
    Aws,
    /// Azure-like provider (`azure_*` resource types).
    Azure,
    /// GCP-like provider (`gcp_*` resource types).
    Gcp,
}

impl Provider {
    /// All providers, in canonical order.
    pub const ALL: [Provider; 3] = [Provider::Aws, Provider::Azure, Provider::Gcp];

    /// The resource-type prefix of this provider (`aws` in
    /// `aws_virtual_machine`).
    pub fn prefix(&self) -> &'static str {
        match self {
            Provider::Aws => "aws",
            Provider::Azure => "azure",
            Provider::Gcp => "gcp",
        }
    }

    /// Infer the provider from a resource type name's prefix.
    pub fn from_type_prefix(prefix: &str) -> Option<Provider> {
        match prefix {
            "aws" => Some(Provider::Aws),
            "azure" => Some(Provider::Azure),
            "gcp" => Some(Provider::Gcp),
            _ => None,
        }
    }

    /// The regions this provider offers in the simulation.
    pub fn regions(&self) -> &'static [&'static str] {
        match self {
            Provider::Aws => &["us-east-1", "us-west-2", "eu-west-1", "ap-south-1"],
            Provider::Azure => &["eastus", "westus2", "westeurope", "southeastasia"],
            Provider::Gcp => &["us-central1", "us-west1", "europe-west1", "asia-east1"],
        }
    }

    /// The region a resource of type `rtype` with these attributes lands
    /// in: its `location`/`region` attribute, else its provider's default.
    pub fn effective_region<'a>(
        attrs: &'a crate::Attrs,
        rtype: &crate::ResourceTypeName,
    ) -> Option<&'a str> {
        let pinned = ["location", "region"]
            .iter()
            .find_map(|key| attrs.get(*key)?.as_str());
        let default = || Some(Provider::from_type_prefix(rtype.provider_prefix())?.regions()[0]);
        pinned.or_else(default)
    }

    /// Default region used when a program does not pin one.
    pub fn default_region(&self) -> Region {
        Region::new(self.regions()[0])
    }

    /// Whether `region` is a valid region name for this provider.
    pub fn has_region(&self, region: &Region) -> bool {
        self.regions().contains(&region.as_str())
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

impl FromStr for Provider {
    type Err = UnknownProvider;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Provider::from_type_prefix(s).ok_or_else(|| UnknownProvider(s.to_owned()))
    }
}

/// Error returned when a provider name is not recognized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProvider(pub String);

impl fmt::Display for UnknownProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown cloud provider: {:?}", self.0)
    }
}

impl std::error::Error for UnknownProvider {}

/// A cloud region name, e.g. `us-east-1` or `westeurope`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Region(pub String);

impl Region {
    pub fn new(name: impl Into<String>) -> Self {
        Region(name.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Which provider offers this region, if any.
    pub fn provider(&self) -> Option<Provider> {
        Provider::ALL.iter().copied().find(|p| p.has_region(self))
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Region {
    fn from(s: &str) -> Self {
        Region::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_round_trip() {
        for p in Provider::ALL {
            assert_eq!(Provider::from_type_prefix(p.prefix()), Some(p));
            assert_eq!(p.prefix().parse::<Provider>(), Ok(p));
        }
        assert!(Provider::from_type_prefix("oracle").is_none());
        assert!("oracle".parse::<Provider>().is_err());
    }

    #[test]
    fn regions_belong_to_their_provider() {
        for p in Provider::ALL {
            for r in p.regions() {
                let region = Region::new(*r);
                assert!(p.has_region(&region));
                assert_eq!(region.provider(), Some(p));
            }
        }
    }

    #[test]
    fn default_region_is_first() {
        assert_eq!(Provider::Aws.default_region().as_str(), "us-east-1");
        assert_eq!(Provider::Azure.default_region().as_str(), "eastus");
    }

    #[test]
    fn unknown_region_has_no_provider() {
        assert_eq!(Region::new("mars-north-1").provider(), None);
    }
}
