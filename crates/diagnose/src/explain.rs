//! Cloud-error translation: from provider-speak to file:line + root cause.
//!
//! §3.5: "an error message like 'Linux virtual machine creation failed
//! because specified NIC is not found' lacks precise correlation to the
//! original IaC program itself — the above error message gives people the
//! impression that NIC does not exist, while the root cause is that the NIC
//! and VM were not configured in the same region. To make things worse, such
//! error messages do not even pinpoint the specific 'lines of code' as to
//! which parameter is causing the anomaly. We need debuggers that correlate
//! runtime cloud-level errors to the IaC program itself."
//!
//! [`explain`] keys on the machine-readable error `code` the simulated
//! providers attach, inspects the manifest (which carries per-attribute
//! source spans) and the state, and produces an [`Explanation`]: the root
//! cause in plain language, the exact span of the offending attribute, the
//! spans of *related* resources (the NIC's `location` line, not just the
//! VM), and a concrete fix.

use cloudless_cloud::CloudError;
use cloudless_hcl::program::{Manifest, ResourceInstance};
use cloudless_types::{Provider, ResourceAddr, Span};
use serde::Serialize;

/// A source location in an explanation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Location {
    pub file: String,
    pub span: Span,
    pub label: String,
}

/// A translated error.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Explanation {
    /// The failing resource.
    pub addr: ResourceAddr,
    /// Primary location (the attribute to look at).
    pub location: Option<Location>,
    /// Additional related locations (e.g. the other resource involved).
    pub related: Vec<Location>,
    /// Root cause in plain language — *not* the provider message.
    pub root_cause: String,
    /// Concrete suggested fix.
    pub fix: Option<String>,
    /// The original provider message, kept for reference.
    pub raw: String,
}

impl Explanation {
    /// Whether the explanation pinpoints at least one source line.
    pub fn is_localized(&self) -> bool {
        self.location.is_some()
    }

    /// Render like a compiler diagnostic.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "error: {} ({})", self.root_cause, self.addr);
        if let Some(loc) = &self.location {
            let _ = writeln!(out, "  --> {}:{}: {}", loc.file, loc.span, loc.label);
        }
        for r in &self.related {
            let _ = writeln!(out, "  ::: {}:{}: {}", r.file, r.span, r.label);
        }
        if let Some(fix) = &self.fix {
            let _ = writeln!(out, "  = help: {fix}");
        }
        let _ = writeln!(out, "  = provider said: {}", self.raw);
        out
    }
}

fn attr_loc(inst: &ResourceInstance, attr: &str, label: impl Into<String>) -> Option<Location> {
    let span = inst
        .attr_spans
        .get(attr)
        .copied()
        .or_else(|| {
            inst.deferred
                .iter()
                .find(|d| d.name == attr)
                .map(|d| d.span)
        })
        .unwrap_or(inst.span);
    Some(Location {
        file: inst.file.to_string(),
        span,
        label: label.into(),
    })
}

/// Region of an instance at the IaC level (explicit attr or provider
/// default).
fn region_of(inst: &ResourceInstance) -> Option<&str> {
    Provider::effective_region(&inst.attrs, &inst.addr.rtype)
}

/// Translate a cloud error on `failed_addr` back to the program.
pub fn explain(error: &CloudError, failed_addr: &ResourceAddr, manifest: &Manifest) -> Explanation {
    let inst = manifest.instance(failed_addr);
    let fallback = |root_cause: String| Explanation {
        addr: failed_addr.clone(),
        location: inst.map(|i| Location {
            file: i.file.to_string(),
            span: i.span,
            label: "resource declared here".to_owned(),
        }),
        related: Vec::new(),
        root_cause,
        fix: None,
        raw: error.to_string(),
    };
    let Some(inst) = inst else {
        return Explanation {
            location: None,
            ..fallback(format!("cloud operation failed: {}", error.message))
        };
    };

    match error.code.as_str() {
        // The paper's flagship misleading message.
        "NicNotFound" => {
            let vm_region = region_of(inst).unwrap_or_default();
            // find the referenced NIC instances and their regions
            let mut related = Vec::new();
            let mut nic_region = None;
            for d in &inst.deferred {
                if d.name != "nic_ids" {
                    continue;
                }
                for r in &d.waiting_on {
                    if r.parts.len() < 2 {
                        continue;
                    }
                    let nics = manifest.instances.iter().filter(|i| {
                        i.addr.rtype.as_str() == r.parts[0] && i.addr.name == r.parts[1]
                    });
                    for nic in nics {
                        if let Some(region) = region_of(nic) {
                            if region != vm_region {
                                nic_region = Some(region);
                                if let Some(loc) = attr_loc(
                                    nic,
                                    "location",
                                    format!("the NIC {} is pinned to {region:?} here", nic.addr),
                                ) {
                                    related.push(loc);
                                }
                            }
                        }
                    }
                }
            }
            let root_cause = match &nic_region {
                Some(nr) => format!(
                    "the VM is in {vm_region:?} but its network interface is in {nr:?}; the provider requires them to be in the same region (its \"NIC is not found\" message is misleading)"
                ),
                None => "a referenced network interface does not exist or is not visible to the VM".to_owned(),
            };
            Explanation {
                addr: failed_addr.clone(),
                location: attr_loc(inst, "nic_ids", "NICs referenced here"),
                related,
                fix: nic_region.map(|_| {
                    format!("move the NIC and the VM into the same region (VM is in {vm_region:?})")
                }),
                root_cause,
                raw: error.to_string(),
            }
        }
        "OSProvisioningClientError" => Explanation {
            addr: failed_addr.clone(),
            location: attr_loc(inst, "admin_password", "password set here"),
            related: Vec::new(),
            root_cause:
                "a password is configured but password authentication was not explicitly enabled"
                    .to_owned(),
            fix: Some("add `disable_password_authentication = false` to the VM".to_owned()),
            raw: error.to_string(),
        },
        "VnetAddressSpaceOverlaps" => Explanation {
            addr: failed_addr.clone(),
            location: attr_loc(inst, "remote_vnet_id", "peering declared here"),
            related: Vec::new(),
            root_cause: "the two peered virtual networks have overlapping address spaces"
                .to_owned(),
            fix: Some("give the peered networks disjoint CIDR ranges".to_owned()),
            raw: error.to_string(),
        },
        "InvalidSubnetRange" => Explanation {
            addr: failed_addr.clone(),
            location: attr_loc(
                inst,
                if inst.addr.rtype.provider_prefix() == "azure" {
                    "address_prefix"
                } else {
                    "cidr_block"
                },
                "subnet range declared here",
            ),
            related: Vec::new(),
            root_cause: "the subnet's CIDR is not contained in its parent network's range"
                .to_owned(),
            fix: Some("choose a CIDR inside the parent network's address space".to_owned()),
            raw: error.to_string(),
        },
        "QuotaExceeded" => Explanation {
            addr: failed_addr.clone(),
            location: Some(Location {
                file: inst.file.to_string(),
                span: inst.span,
                label: "resource declared here".to_owned(),
            }),
            related: Vec::new(),
            root_cause: format!("the {} quota in this region is exhausted", inst.addr.rtype),
            fix: Some(
                "lower the count, spread across regions, or request a quota increase".to_owned(),
            ),
            raw: error.to_string(),
        },
        "InvalidResourceReference" => {
            // which attribute holds the bad reference?
            let attr = inst
                .deferred
                .first()
                .map(|d| d.name.clone())
                .or_else(|| inst.attrs.keys().next().cloned())
                .unwrap_or_default();
            Explanation {
                addr: failed_addr.clone(),
                location: attr_loc(inst, &attr, "reference made here"),
                related: Vec::new(),
                root_cause: "a referenced resource does not exist or has the wrong type".to_owned(),
                fix: Some(
                    "check that the referenced resource is declared and of the expected type"
                        .to_owned(),
                ),
                raw: error.to_string(),
            }
        }
        "BucketAlreadyExists" | "StorageAccountAlreadyTaken" | "BucketNameUnavailable" => {
            let attr = if inst.attrs.contains_key("bucket") {
                "bucket"
            } else {
                "name"
            };
            Explanation {
                addr: failed_addr.clone(),
                location: attr_loc(inst, attr, "name chosen here"),
                related: Vec::new(),
                root_cause: "the chosen name is globally unique and already taken".to_owned(),
                fix: Some("pick a different name (add an org prefix or random suffix)".to_owned()),
                raw: error.to_string(),
            }
        }
        "PropertyChangeNotAllowed" => Explanation {
            addr: failed_addr.clone(),
            location: Some(Location {
                file: inst.file.to_string(),
                span: inst.span,
                label: "resource declared here".to_owned(),
            }),
            related: Vec::new(),
            root_cause:
                "an immutable attribute was changed; the resource must be replaced, not updated"
                    .to_owned(),
            fix: Some("plan a replace (destroy-and-recreate) for this resource".to_owned()),
            raw: error.to_string(),
        },
        "InternalServerError" => fallback(
            "the provider had a transient internal error; the operation is safe to retry"
                .to_owned(),
        ),
        _ => fallback(format!("cloud operation failed: {}", error.message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_deploy::resolver::DataResolver;
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
    use std::collections::BTreeMap;

    fn manifest(src: &str) -> Manifest {
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &DataResolver::new(),
        )
        .unwrap()
    }

    const NIC_SRC: &str = r#"resource "azure_network_interface" "n1" {
  name     = "n1"
  location = "westeurope"
}
resource "azure_virtual_machine" "vm1" {
  name     = "vm1"
  location = "eastus"
  nic_ids  = [azure_network_interface.n1.id]
}
"#;

    #[test]
    fn nic_error_translated_to_region_mismatch() {
        let m = manifest(NIC_SRC);
        let err = CloudError::constraint(
            "NicNotFound",
            "Linux virtual machine creation failed because specified NIC is not found",
        );
        let ex = explain(&err, &"azure_virtual_machine.vm1".parse().unwrap(), &m);
        // root cause is region mismatch, NOT "nic not found"
        assert!(ex.root_cause.contains("same region"));
        assert!(ex.root_cause.contains("eastus") && ex.root_cause.contains("westeurope"));
        // primary location: the nic_ids line (line 8 of the source)
        let loc = ex.location.as_ref().expect("localized");
        assert_eq!(loc.span.start.line, 8);
        // related location: the NIC's location attribute (line 3)
        assert_eq!(ex.related.len(), 1);
        assert_eq!(ex.related[0].span.start.line, 3);
        assert!(ex.fix.is_some());
        // the rendered output looks like a compiler diagnostic
        let text = ex.render();
        assert!(text.contains("--> main.tf:8:"));
        assert!(text.contains("provider said: NicNotFound"));
    }

    #[test]
    fn password_error_points_at_password_line() {
        let m = manifest(
            r#"resource "azure_virtual_machine" "vm" {
  name           = "vm"
  location       = "eastus"
  nic_ids        = []
  admin_password = "hunter2"
}
"#,
        );
        let err = CloudError::constraint(
            "OSProvisioningClientError",
            "OS provisioning failure: cannot process authentication settings",
        );
        let ex = explain(&err, &"azure_virtual_machine.vm".parse().unwrap(), &m);
        assert_eq!(ex.location.as_ref().unwrap().span.start.line, 5);
        assert!(ex
            .fix
            .as_ref()
            .unwrap()
            .contains("disable_password_authentication"));
    }

    #[test]
    fn unique_name_error_points_at_name() {
        let m = manifest(r#"resource "aws_s3_bucket" "b" { bucket = "taken" }"#);
        let err = CloudError::constraint("BucketAlreadyExists", "name not available");
        let ex = explain(&err, &"aws_s3_bucket.b".parse().unwrap(), &m);
        assert!(ex.is_localized());
        assert!(ex.root_cause.contains("already taken"));
    }

    #[test]
    fn unknown_code_falls_back_with_block_span() {
        let m = manifest(r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }"#);
        let err = CloudError::constraint("SomethingNovel", "mystery");
        let ex = explain(&err, &"aws_vpc.v".parse().unwrap(), &m);
        assert!(ex.is_localized(), "falls back to block span");
        assert!(ex.root_cause.contains("mystery"));
        assert!(ex.fix.is_none());
    }

    #[test]
    fn missing_instance_yields_unlocalized_explanation() {
        let m = manifest("");
        let err = CloudError::constraint("NicNotFound", "boom");
        let ex = explain(&err, &"azure_virtual_machine.ghost".parse().unwrap(), &m);
        assert!(!ex.is_localized());
    }

    #[test]
    fn transient_errors_marked_retryable() {
        let m = manifest(r#"resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }"#);
        let err = CloudError::transient("InternalServerError", "retry");
        let ex = explain(&err, &"aws_vpc.v".parse().unwrap(), &m);
        assert!(ex.root_cause.contains("safe to retry"));
    }
}
