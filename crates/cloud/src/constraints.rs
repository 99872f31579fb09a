//! Cloud-side constraint enforcement.
//!
//! §3.2: "Azure requires that VMs and their attached network interface cards
//! (NICs) must be in the same cloud region. If a configuration violates this
//! rule, it will error out during deployment. … Azure VMs could specify a
//! password only if another disable_password attribute is explicitly set to
//! false; Azure virtual networks cannot have overlapping address spaces if
//! they are connected with each other through peering."
//!
//! These rules live *inside the cloud*, not in the IaC tool — that asymmetry
//! is the paper's point. They fire at provisioning time with the opaque,
//! misleading error messages real providers emit (§3.5 quotes the infamous
//! "specified NIC is not found" message whose root cause is a region
//! mismatch; we reproduce that exact message). `cloudless-validate`
//! re-implements the same predicates as *compile-time* checks; experiment E6
//! measures how many deployment failures that eliminates.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cloudless_types::cidr::Cidr;
use cloudless_types::{Attrs, Region, ResourceId, ResourceTypeName, Value};

use crate::api::CloudError;
use crate::catalog::{Catalog, SemanticType};
use crate::engine::ResourceRecord;

/// A resource about to be created or updated (post-merge attribute view).
pub struct PendingResource<'a> {
    pub rtype: &'a ResourceTypeName,
    pub region: &'a Region,
    pub attrs: &'a Attrs,
    /// Id, when this is an update of an existing resource.
    pub id: Option<&'a ResourceId>,
}

/// Read-only view of live cloud state for constraint evaluation.
pub struct StateView<'a> {
    pub records: &'a BTreeMap<ResourceId, ResourceRecord>,
    pub catalog: &'a Catalog,
    /// Unique-name index (rtype → name value → live ids carrying it): the
    /// globally-unique-name check is a map probe, not a scan of `records`.
    pub names: &'a HashMap<String, HashMap<String, BTreeSet<ResourceId>>>,
}

impl<'a> StateView<'a> {
    fn get(&self, id: &str) -> Option<&ResourceRecord> {
        self.records.get(&ResourceId::new(id))
    }
}

/// Evaluate every applicable rule; first violation wins (like real clouds,
/// which abort provisioning on the first error).
pub fn check(pending: &PendingResource<'_>, state: &StateView<'_>) -> Option<CloudError> {
    check_references(pending, state)
        .or_else(|| check_nic_region(pending, state))
        .or_else(|| check_password_policy(pending))
        .or_else(|| check_peering_overlap(pending, state))
        .or_else(|| check_subnet_containment(pending, state))
        .or_else(|| check_ports(pending))
        .or_else(|| check_unique_name(pending, state))
}

/// Collect the ids referenced by an attribute value (string or list of
/// strings).
fn ref_ids(v: &Value) -> Vec<&str> {
    match v {
        Value::Str(s) => vec![s.as_str()],
        Value::List(items) => items.iter().filter_map(Value::as_str).collect(),
        _ => Vec::new(),
    }
}

/// Generic referential integrity: every `RefTo`/`ListOfRefs` attribute must
/// name a live resource of the right type.
fn check_references(p: &PendingResource<'_>, s: &StateView<'_>) -> Option<CloudError> {
    let schema = s.catalog.get(p.rtype)?;
    for (name, value) in p.attrs {
        let Some(attr) = schema.attr(name) else {
            continue;
        };
        let expected = match &attr.semantic {
            SemanticType::RefTo(t) | SemanticType::ListOfRefs(t) => t,
            _ => continue,
        };
        if value.is_null() {
            continue;
        }
        for id in ref_ids(value) {
            match s.get(id) {
                None => {
                    return Some(CloudError::constraint(
                        "InvalidResourceReference",
                        format!("creation failed because referenced resource '{id}' was not found"),
                    ))
                }
                Some(rec) if &rec.rtype != expected => {
                    return Some(CloudError::constraint(
                        "InvalidResourceReference",
                        format!(
                        "resource '{id}' is of type '{}' which is not valid for property '{name}'",
                        rec.rtype
                    ),
                    ))
                }
                Some(_) => {}
            }
        }
    }
    None
}

/// The paper's flagship example: VM and its NICs must share a region — and
/// the provider reports it with the misleading "NIC is not found" message.
fn check_nic_region(p: &PendingResource<'_>, s: &StateView<'_>) -> Option<CloudError> {
    let is_vm = matches!(
        p.rtype.as_str(),
        "azure_virtual_machine" | "aws_virtual_machine"
    );
    if !is_vm {
        return None;
    }
    let nic_ids = p.attrs.get("nic_ids")?;
    for id in ref_ids(nic_ids) {
        if let Some(nic) = s.get(id) {
            if &nic.region != p.region {
                // Verbatim the message shape the paper quotes in §3.5.
                return Some(CloudError::constraint(
                    "NicNotFound",
                    "Linux virtual machine creation failed because specified NIC is not found"
                        .to_owned(),
                ));
            }
        }
    }
    None
}

/// Azure password interplay: a password may only be supplied when
/// `disable_password_authentication` is explicitly `false`.
fn check_password_policy(p: &PendingResource<'_>) -> Option<CloudError> {
    let pw_attr = match p.rtype.as_str() {
        "azure_virtual_machine" => "admin_password",
        "azure_sql_database" => "admin_password",
        _ => return None,
    };
    let pw = p.attrs.get(pw_attr)?;
    if pw.is_null() {
        return None;
    }
    if p.rtype.as_str() == "azure_virtual_machine" {
        let disabled = p.attrs.get("disable_password_authentication");
        let ok = matches!(disabled, Some(Value::Bool(false)));
        if !ok {
            return Some(CloudError::constraint(
                "OSProvisioningClientError",
                "OS provisioning failure: cannot process authentication settings for the virtual machine",
            ));
        }
    }
    None
}

/// Peered VNets must not have overlapping address spaces.
fn check_peering_overlap(p: &PendingResource<'_>, s: &StateView<'_>) -> Option<CloudError> {
    if p.rtype.as_str() != "azure_vnet_peering" {
        return None;
    }
    let a = s.get(p.attrs.get("vnet_id")?.as_str()?)?;
    let b = s.get(p.attrs.get("remote_vnet_id")?.as_str()?)?;
    let ca: Cidr = a.attrs.get("address_space")?.as_str()?.parse().ok()?;
    let cb: Cidr = b.attrs.get("address_space")?.as_str()?.parse().ok()?;
    if ca.overlaps(&cb) {
        return Some(CloudError::constraint(
            "VnetAddressSpaceOverlaps",
            format!(
                "cannot peer virtual networks: address space {ca} overlaps with remote address space {cb}"
            ),
        ));
    }
    None
}

/// A subnet's CIDR must be contained in its parent network's CIDR.
fn check_subnet_containment(p: &PendingResource<'_>, s: &StateView<'_>) -> Option<CloudError> {
    let (parent_attr, parent_cidr_attr, own_attr) = match p.rtype.as_str() {
        "aws_subnet" => ("vpc_id", "cidr_block", "cidr_block"),
        "azure_subnet" => ("vnet_id", "address_space", "address_prefix"),
        "gcp_subnetwork" => return None, // GCP custom-mode nets carry no CIDR
        _ => return None,
    };
    let parent = s.get(p.attrs.get(parent_attr)?.as_str()?)?;
    let parent_cidr: Cidr = parent.attrs.get(parent_cidr_attr)?.as_str()?.parse().ok()?;
    let own: Cidr = match p.attrs.get(own_attr)?.as_str()?.parse() {
        Ok(c) => c,
        Err(e) => {
            return Some(CloudError::constraint(
                "InvalidParameterValue",
                format!("value for parameter {own_attr} is invalid: {e}"),
            ))
        }
    };
    if !parent_cidr.contains(&own) {
        return Some(CloudError::constraint(
            "InvalidSubnetRange",
            format!("the CIDR '{own}' is invalid for the network's address space '{parent_cidr}'"),
        ));
    }
    None
}

/// Security-group / firewall port sanity.
fn check_ports(p: &PendingResource<'_>) -> Option<CloudError> {
    let list_attr = match p.rtype.as_str() {
        "aws_security_group" => "ingress",
        "gcp_firewall_rule" => "allow_ports",
        _ => return None,
    };
    let rules = p.attrs.get(list_attr)?.as_list()?;
    for rule in rules {
        let port = match rule {
            Value::Num(n) => Some(*n),
            Value::Map(m) => m.get("port").and_then(Value::as_num),
            _ => None,
        };
        if let Some(port) = port {
            if !(0.0..=65535.0).contains(&port) || port.fract() != 0.0 {
                return Some(CloudError::constraint(
                    "InvalidParameterValue",
                    format!("invalid value for port range: {port}"),
                ));
            }
        }
    }
    None
}

/// The unique-name attribute and conflict error code of a
/// globally-unique-name type (buckets, storage accounts), if any. Shared
/// with the engine's incremental name index.
pub fn unique_name_attr(rtype: &str) -> Option<(&'static str, &'static str)> {
    match rtype {
        "aws_s3_bucket" => Some(("bucket", "BucketAlreadyExists")),
        "azure_storage_account" => Some(("name", "StorageAccountAlreadyTaken")),
        "gcp_storage_bucket" => Some(("name", "BucketNameUnavailable")),
        _ => None,
    }
}

/// Globally-unique-name types (buckets, storage accounts).
fn check_unique_name(p: &PendingResource<'_>, s: &StateView<'_>) -> Option<CloudError> {
    let (name_attr, code) = unique_name_attr(p.rtype.as_str())?;
    let name = p.attrs.get(name_attr)?.as_str()?;
    let holders = s.names.get(p.rtype.as_str()).and_then(|n| n.get(name));
    if holders.is_some_and(|ids| ids.iter().any(|id| Some(id) != p.id)) {
        return Some(CloudError::constraint(
            code,
            format!("the requested name '{name}' is not available"),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::value::attrs;
    use cloudless_types::SimTime;

    fn record(id: &str, rtype: &str, region: &str, a: Attrs) -> (ResourceId, ResourceRecord) {
        (
            ResourceId::new(id),
            ResourceRecord {
                id: ResourceId::new(id),
                rtype: ResourceTypeName::new(rtype),
                region: Region::new(region),
                attrs: a,
                created_at: SimTime::ZERO,
                updated_at: SimTime::ZERO,
            },
        )
    }

    fn run(
        rtype: &str,
        region: &str,
        a: Attrs,
        records: Vec<(ResourceId, ResourceRecord)>,
    ) -> Option<CloudError> {
        let catalog = Catalog::standard();
        let records: BTreeMap<ResourceId, ResourceRecord> = records.into_iter().collect();
        let mut names: HashMap<String, HashMap<String, BTreeSet<ResourceId>>> = HashMap::new();
        for rec in records.values() {
            let attr = unique_name_attr(rec.rtype.as_str()).and_then(|(a, _)| rec.attrs.get(a));
            if let Some(name) = attr.and_then(Value::as_str) {
                let by_name = names.entry(rec.rtype.to_string()).or_default();
                let holders = by_name.entry(name.to_owned()).or_default();
                holders.insert(rec.id.clone());
            }
        }
        let rtype = ResourceTypeName::new(rtype);
        let region = Region::new(region);
        check(
            &PendingResource {
                rtype: &rtype,
                region: &region,
                attrs: &a,
                id: None,
            },
            &StateView {
                records: &records,
                catalog: &catalog,
                names: &names,
            },
        )
    }

    #[test]
    fn nic_region_mismatch_reports_misleading_message() {
        let nic = record(
            "nic-1",
            "azure_network_interface",
            "westeurope",
            attrs([("name", Value::from("n1"))]),
        );
        let err = run(
            "azure_virtual_machine",
            "eastus",
            attrs([
                ("name", Value::from("vm1")),
                ("nic_ids", Value::from(vec!["nic-1"])),
            ]),
            vec![nic],
        )
        .expect("violation");
        assert_eq!(err.code, "NicNotFound");
        // The exact misleading message from the paper §3.5
        assert!(err.message.contains("specified NIC is not found"));
        assert!(!err.retryable);
    }

    #[test]
    fn nic_same_region_passes() {
        let nic = record(
            "nic-1",
            "azure_network_interface",
            "eastus",
            attrs([("name", Value::from("n1"))]),
        );
        assert_eq!(
            run(
                "azure_virtual_machine",
                "eastus",
                attrs([
                    ("name", Value::from("vm1")),
                    ("nic_ids", Value::from(vec!["nic-1"])),
                ]),
                vec![nic],
            ),
            None
        );
    }

    #[test]
    fn dangling_reference_rejected() {
        let err = run(
            "azure_virtual_machine",
            "eastus",
            attrs([
                ("name", Value::from("vm1")),
                ("nic_ids", Value::from(vec!["nic-ghost"])),
            ]),
            vec![],
        )
        .expect("violation");
        assert_eq!(err.code, "InvalidResourceReference");
    }

    #[test]
    fn wrong_type_reference_rejected() {
        let bucket = record(
            "bkt-1",
            "aws_s3_bucket",
            "us-east-1",
            attrs([("bucket", Value::from("b"))]),
        );
        let err = run(
            "aws_virtual_machine",
            "us-east-1",
            attrs([
                ("name", Value::from("vm")),
                ("subnet_id", Value::from("bkt-1")),
            ]),
            vec![bucket],
        )
        .expect("violation");
        assert_eq!(err.code, "InvalidResourceReference");
        assert!(err.message.contains("aws_s3_bucket"));
    }

    #[test]
    fn password_requires_explicit_opt_in() {
        // password with the flag missing → rejected
        let err = run(
            "azure_virtual_machine",
            "eastus",
            attrs([
                ("name", Value::from("vm")),
                ("nic_ids", Value::List(vec![])),
                ("admin_password", Value::from("hunter2")),
            ]),
            vec![],
        )
        .expect("violation");
        assert_eq!(err.code, "OSProvisioningClientError");

        // flag set true → still rejected
        assert!(run(
            "azure_virtual_machine",
            "eastus",
            attrs([
                ("name", Value::from("vm")),
                ("nic_ids", Value::List(vec![])),
                ("admin_password", Value::from("hunter2")),
                ("disable_password_authentication", Value::Bool(true)),
            ]),
            vec![],
        )
        .is_some());

        // flag explicitly false → allowed
        assert_eq!(
            run(
                "azure_virtual_machine",
                "eastus",
                attrs([
                    ("name", Value::from("vm")),
                    ("nic_ids", Value::List(vec![])),
                    ("admin_password", Value::from("hunter2")),
                    ("disable_password_authentication", Value::Bool(false)),
                ]),
                vec![],
            ),
            None
        );
    }

    #[test]
    fn peering_overlap_rejected() {
        let v1 = record(
            "vnet-1",
            "azure_virtual_network",
            "eastus",
            attrs([("address_space", Value::from("10.0.0.0/16"))]),
        );
        let v2 = record(
            "vnet-2",
            "azure_virtual_network",
            "eastus",
            attrs([("address_space", Value::from("10.0.128.0/17"))]),
        );
        let err = run(
            "azure_vnet_peering",
            "eastus",
            attrs([
                ("vnet_id", Value::from("vnet-1")),
                ("remote_vnet_id", Value::from("vnet-2")),
            ]),
            vec![v1, v2],
        )
        .expect("violation");
        assert_eq!(err.code, "VnetAddressSpaceOverlaps");
    }

    #[test]
    fn peering_disjoint_passes() {
        let v1 = record(
            "vnet-1",
            "azure_virtual_network",
            "eastus",
            attrs([("address_space", Value::from("10.0.0.0/16"))]),
        );
        let v2 = record(
            "vnet-2",
            "azure_virtual_network",
            "eastus",
            attrs([("address_space", Value::from("10.1.0.0/16"))]),
        );
        assert_eq!(
            run(
                "azure_vnet_peering",
                "eastus",
                attrs([
                    ("vnet_id", Value::from("vnet-1")),
                    ("remote_vnet_id", Value::from("vnet-2")),
                ]),
                vec![v1, v2],
            ),
            None
        );
    }

    #[test]
    fn subnet_outside_vpc_rejected() {
        let vpc = record(
            "vpc-1",
            "aws_vpc",
            "us-east-1",
            attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
        );
        let err = run(
            "aws_subnet",
            "us-east-1",
            attrs([
                ("vpc_id", Value::from("vpc-1")),
                ("cidr_block", Value::from("10.1.0.0/24")),
            ]),
            vec![vpc],
        )
        .expect("violation");
        assert_eq!(err.code, "InvalidSubnetRange");
    }

    #[test]
    fn subnet_inside_vpc_passes() {
        let vpc = record(
            "vpc-1",
            "aws_vpc",
            "us-east-1",
            attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
        );
        assert_eq!(
            run(
                "aws_subnet",
                "us-east-1",
                attrs([
                    ("vpc_id", Value::from("vpc-1")),
                    ("cidr_block", Value::from("10.0.5.0/24")),
                ]),
                vec![vpc],
            ),
            None
        );
    }

    #[test]
    fn bad_port_rejected() {
        let err = run(
            "aws_security_group",
            "us-east-1",
            attrs([
                ("name", Value::from("sg")),
                (
                    "ingress",
                    Value::List(vec![cloudless_types::value::vmap([(
                        "port",
                        Value::from(70000i64),
                    )])]),
                ),
            ]),
            vec![],
        )
        .expect("violation");
        assert_eq!(err.code, "InvalidParameterValue");
    }

    #[test]
    fn duplicate_bucket_name_rejected() {
        let existing = record(
            "bkt-1",
            "aws_s3_bucket",
            "us-east-1",
            attrs([("bucket", Value::from("logs"))]),
        );
        let err = run(
            "aws_s3_bucket",
            "us-west-2",
            attrs([("bucket", Value::from("logs"))]),
            vec![existing],
        )
        .expect("violation");
        assert_eq!(err.code, "BucketAlreadyExists");
    }
}
