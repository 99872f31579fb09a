//! Layer 3: cloud-specific cross-resource rules, evaluated at compile time.
//!
//! These are the *same predicates* the simulated cloud enforces at
//! provisioning time (`cloudless-cloud::constraints`), lifted to the IaC
//! level: instead of following cloud-assigned ids, they follow the
//! *references between instances* in the manifest. That is exactly the
//! paper's proposal (§3.2): "transform cloud-level constraints into
//! IaC-level program checks". Where the cloud says "specified NIC is not
//! found" at minute 40 of a deployment, this layer says
//! `main.tf:12: VM is in "eastus" but its NIC n1 is in "westeurope"` before
//! anything is provisioned (experiment E6 quantifies the difference).

use std::collections::BTreeMap;

use cloudless_cloud::constraints::unique_name_attr;
use cloudless_cloud::Catalog;
use cloudless_hcl::eval::DeferAll;
use cloudless_hcl::program::{Manifest, ResourceInstance};
pub use cloudless_hcl::program::{ManifestIndex, Positions};
use cloudless_hcl::{fold, Diagnostic, Diagnostics, Folded};
use cloudless_types::cidr::Cidr;
use cloudless_types::{Provider, Span, Value};

/// Run all cross-resource rules over a manifest and its index.
pub fn check(manifest: &Manifest, index: &ManifestIndex, catalog: &Catalog) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for inst in &manifest.instances {
        check_instance(inst, manifest, index, &mut diags);
    }
    rule_unique_names(manifest, &mut diags);
    rule_quota_bounds(manifest, catalog, &mut diags);
    diags
}

/// The per-instance rules, for one instance.
pub(crate) fn check_instance(
    inst: &ResourceInstance,
    manifest: &Manifest,
    index: &dyn Positions,
    diags: &mut Diagnostics,
) {
    let targets = Targets { manifest, index };
    rule_vm_nic_region(inst, &targets, diags);
    rule_password_flag(inst, diags);
    rule_peering_overlap(inst, &targets, diags);
    rule_subnet_containment(inst, &targets, diags);
    rule_port_ranges(inst, diags);
}

/// Resolves an instance's references to the instances they point at.
pub(crate) struct Targets<'a> {
    manifest: &'a Manifest,
    index: &'a dyn Positions,
}

impl<'a> Targets<'a> {
    /// Instances a deferred attribute's references point at.
    fn of(&self, from: &ResourceInstance, attr: &str) -> Vec<&'a ResourceInstance> {
        let mut out = Vec::new();
        for d in &from.deferred {
            if d.name != attr {
                continue;
            }
            for t in &d.waiting_on {
                let (path, instances) = (&from.addr.module_path, &self.manifest.instances);
                let read = t.positions(path, self.index, instances);
                out.extend(read.map(|i| &**instances.at(i)));
            }
        }
        out
    }
}

/// Where to point a diagnostic about `attr`: its own span, else the block's.
pub(crate) fn span_of(inst: &ResourceInstance, attr: &str) -> Span {
    inst.attr_spans.get(attr).copied().unwrap_or(inst.span)
}

/// The effective region of an instance: its `location`/`region` attribute,
/// falling back to the provider default.
pub fn region_of(inst: &ResourceInstance) -> Option<&str> {
    let configured = inst.provider_region.as_deref();
    Provider::effective_region(&inst.attrs, &inst.addr.rtype, configured)
}

/// §3.2 flagship: VM and its NICs must share a region.
pub(crate) fn rule_vm_nic_region(
    inst: &ResourceInstance,
    index: &Targets,
    diags: &mut Diagnostics,
) {
    if !matches!(
        inst.addr.rtype.as_str(),
        "azure_virtual_machine" | "aws_virtual_machine"
    ) {
        return;
    }
    let Some(vm_region) = region_of(inst) else {
        return;
    };
    for nic in index.of(inst, "nic_ids") {
        if !nic.addr.rtype.short_name().contains("network_interface") {
            continue; // wrong-type refs are reported by the semantic layer
        }
        if let Some(nic_region) = region_of(nic) {
            if nic_region != vm_region {
                diags.push(
                    Diagnostic::error(
                        "VAL301",
                        &inst.file,
                        span_of(inst, "nic_ids"),
                        format!(
                            "{}: VM is in {vm_region:?} but its network interface {} is in {nic_region:?}; the provider requires them to match",
                            inst.addr, nic.addr
                        ),
                    )
                    .with_suggestion(format!(
                        "set location = {vm_region:?} on {} or move the VM",
                        nic.addr
                    )),
                );
            }
        }
    }
}

/// §3.2: "Azure VMs could specify a password only if another
/// disable_password attribute is explicitly set to false."
///
/// An `admin_password` whose value is an expression deferred to apply time
/// is *not* necessarily present: `var.use_password ? var.pw : null`
/// evaluates to null in one arm. Partial evaluation
/// ([`cloudless_hcl::fold`]) resolves the foldable cases exactly; when the
/// value is genuinely unknowable at plan time the finding is downgraded to
/// a warning instead of flatly claiming the password "is set".
pub(crate) fn rule_password_flag(inst: &ResourceInstance, diags: &mut Diagnostics) {
    if inst.addr.rtype.as_str() != "azure_virtual_machine" {
        return;
    }
    // Definitely present / definitely absent / unknowable at plan time.
    let mut definite = inst
        .attrs
        .get("admin_password")
        .map(|v| !v.is_null())
        .unwrap_or(false);
    let mut possible = false;
    if !definite {
        if let Some(d) = inst.deferred.iter().find(|d| d.name == "admin_password") {
            match fold(&d.expr, &inst.env.scope(&DeferAll)) {
                Folded::Known(v) => definite = !v.is_null(),
                Folded::Unknown => possible = true,
            }
        }
    }
    if !definite && !possible {
        return;
    }
    let flag_ok = matches!(
        inst.attrs.get("disable_password_authentication"),
        Some(Value::Bool(false))
    );
    if !flag_ok {
        let d = if definite {
            Diagnostic::error(
                "VAL302",
                &inst.file,
                span_of(inst, "admin_password"),
                format!(
                    "{}: admin_password is set but disable_password_authentication is not explicitly false",
                    inst.addr
                ),
            )
        } else {
            Diagnostic::warning(
                "VAL302",
                &inst.file,
                span_of(inst, "admin_password"),
                format!(
                    "{}: admin_password may resolve to a value at apply time, but disable_password_authentication is not explicitly false",
                    inst.addr
                ),
            )
        };
        diags.push(d.with_suggestion("add `disable_password_authentication = false`"));
    }
}

/// §3.2: "Azure virtual networks cannot have overlapping address spaces if
/// they are connected with each other through peering."
pub(crate) fn rule_peering_overlap(
    inst: &ResourceInstance,
    index: &Targets,
    diags: &mut Diagnostics,
) {
    if inst.addr.rtype.as_str() != "azure_vnet_peering" {
        return;
    }
    let a = index.of(inst, "vnet_id");
    let b = index.of(inst, "remote_vnet_id");
    let cidr_of = |i: &ResourceInstance| -> Option<Cidr> {
        i.attrs
            .get("address_space")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
    };
    for va in &a {
        for vb in &b {
            if let (Some(ca), Some(cb)) = (cidr_of(va), cidr_of(vb)) {
                if ca.overlaps(&cb) {
                    diags.push(
                        Diagnostic::error(
                            "VAL303",
                            &inst.file,
                            inst.span,
                            format!(
                                "{}: peered virtual networks {} ({ca}) and {} ({cb}) have overlapping address spaces",
                                inst.addr, va.addr, vb.addr
                            ),
                        )
                        .with_suggestion("choose disjoint address spaces for peered networks"),
                    );
                }
            }
        }
    }
}

/// Subnets must fit inside their parent network.
pub(crate) fn rule_subnet_containment(
    inst: &ResourceInstance,
    index: &Targets,
    diags: &mut Diagnostics,
) {
    let (parent_attr, parent_cidr_attr, own_attr) = match inst.addr.rtype.as_str() {
        "aws_subnet" => ("vpc_id", "cidr_block", "cidr_block"),
        "azure_subnet" => ("vnet_id", "address_space", "address_prefix"),
        _ => return,
    };
    let Some(own) = inst
        .attrs
        .get(own_attr)
        .and_then(Value::as_str)
        .and_then(|s| s.parse::<Cidr>().ok())
    else {
        return;
    };
    for parent in index.of(inst, parent_attr) {
        let Some(parent_cidr) = parent
            .attrs
            .get(parent_cidr_attr)
            .and_then(Value::as_str)
            .and_then(|s| s.parse::<Cidr>().ok())
        else {
            continue;
        };
        if !parent_cidr.contains(&own) {
            diags.push(
                Diagnostic::error(
                    "VAL304",
                    &inst.file,
                    span_of(inst, own_attr),
                    format!(
                        "{}: CIDR {own} is outside the parent network {} ({parent_cidr})",
                        inst.addr, parent.addr
                    ),
                )
                .with_suggestion(format!("pick a sub-range of {parent_cidr}")),
            );
        }
    }
}

/// Port sanity inside nested rule blocks.
pub(crate) fn rule_port_ranges(inst: &ResourceInstance, diags: &mut Diagnostics) {
    let list_attr = match inst.addr.rtype.as_str() {
        "aws_security_group" => "ingress",
        "gcp_firewall_rule" => "allow_ports",
        _ => return,
    };
    let Some(rules) = inst.attrs.get(list_attr).and_then(Value::as_list) else {
        return;
    };
    for rule in rules {
        let port = match rule {
            Value::Num(n) => Some(*n),
            Value::Map(m) => m.get("port").and_then(Value::as_num),
            _ => None,
        };
        if let Some(p) = port {
            if !(0.0..=65535.0).contains(&p) || p.fract() != 0.0 {
                diags.push(Diagnostic::error(
                    "VAL305",
                    &inst.file,
                    span_of(inst, list_attr),
                    format!("{}: {p} is not a valid port number", inst.addr),
                ));
            }
        }
    }
}

/// The VAL306 globally-unique-name claim of an instance: `(type, name)`,
/// or `None` for types without global names
/// ([`unique_name_attr`] is the one table of them) or instances without a
/// known name value. Two live claims on the same key are a collision.
pub fn name_claim(inst: &ResourceInstance) -> Option<(&str, &str)> {
    let (name_attr, _) = unique_name_attr(inst.addr.rtype.as_str())?;
    let name = inst.attrs.get(name_attr).and_then(Value::as_str)?;
    Some((inst.addr.rtype.as_str(), name))
}

/// The VAL307 quota bucket of an instance: `(type, effective region)`.
/// The per-bucket instance count must stay within the catalog's
/// `default_quota` for the type.
pub fn quota_key(inst: &ResourceInstance) -> (&str, &str) {
    (
        inst.addr.rtype.as_str(),
        region_of(inst).unwrap_or_default(),
    )
}

/// Globally-unique-name types must not collide *within the program* either.
fn rule_unique_names(manifest: &Manifest, diags: &mut Diagnostics) {
    let mut seen: BTreeMap<(&str, &str), &ResourceInstance> = BTreeMap::new();
    for inst in &manifest.instances {
        let Some(key) = name_claim(inst) else {
            continue;
        };
        if let Some(prev) = seen.get(&key) {
            let name_attr = unique_name_attr(key.0).map_or("name", |(attr, _)| attr);
            diags.push(Diagnostic::error(
                "VAL306",
                &inst.file,
                span_of(inst, name_attr),
                format!(
                    "{}: name {:?} collides with {} (these names are globally unique)",
                    inst.addr, key.1, prev.addr
                ),
            ));
        } else {
            seen.insert(key, inst);
        }
    }
}

/// Pre-flight quota check: the program alone must not exceed per-type
/// quotas.
fn rule_quota_bounds(manifest: &Manifest, catalog: &Catalog, diags: &mut Diagnostics) {
    let mut counts: BTreeMap<(&str, &str), (usize, &ResourceInstance)> = BTreeMap::new();
    for inst in &manifest.instances {
        counts.entry(quota_key(inst)).or_insert((0, inst)).0 += 1;
    }
    for ((rtype, region), (count, first)) in counts {
        let Some(schema) = catalog.get_str(rtype) else {
            continue;
        };
        if count as u32 > schema.default_quota {
            diags.push(
                Diagnostic::error(
                    "VAL307",
                    &first.file,
                    first.span,
                    format!(
                        "program declares {count} {rtype} instances in {region:?} but the quota is {}",
                        schema.default_quota
                    ),
                )
                .with_suggestion("request a quota increase or spread across regions"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_hcl::eval::MapResolver;
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};

    fn diags(src: &str) -> Diagnostics {
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        let m = expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap();
        check(&m, &ManifestIndex::build(&m), &Catalog::standard())
    }

    /// Each block's positions are the range that holds exactly its
    /// instances — in the root module and in two calls of one module — and
    /// a block that expands to nothing has an empty one.
    #[test]
    fn a_block_is_the_range_of_its_instances() {
        let mut lib = ModuleLibrary::new();
        lib.insert(
            "./modules/pair",
            r#"
resource "aws_vpc" "main" {
  count      = 2
  cidr_block = "10.${count.index}.0.0/16"
}
resource "aws_s3_bucket" "logs" { bucket = "logs" }
"#,
        );
        let src = r#"
resource "aws_s3_bucket" "off" {
  count  = 0
  bucket = "off"
}
module "a" { source = "./modules/pair" }
resource "aws_vpc" "main" {
  count      = 3
  cidr_block = "10.9.0.0/16"
}
module "b" { source = "./modules/pair" }
"#;
        let p = Program::from_file(cloudless_hcl::parse(src, "main.tf").unwrap()).unwrap();
        let m = expand(&p, &BTreeMap::new(), &lib, &MapResolver::new()).unwrap();
        let index = ManifestIndex::build(&m);
        let key = |inst: &ResourceInstance| {
            let addr = &inst.addr;
            (
                addr.module_path.clone(),
                addr.rtype.to_string(),
                addr.name.clone(),
            )
        };
        let mut blocks: BTreeMap<_, Vec<usize>> = BTreeMap::new();
        for (at, inst) in m.instances.iter().enumerate() {
            blocks.entry(key(inst)).or_default().push(at);
        }
        let paths: Vec<&[String]> = blocks.keys().map(|(path, ..)| path.as_slice()).collect();
        assert!(paths.contains(&&["a".to_owned()][..]), "{paths:?}");
        assert!(paths.contains(&&["b".to_owned()][..]), "{paths:?}");
        assert_eq!(blocks.len(), 5, "{blocks:?}");
        for ((path, rtype, name), at) in &blocks {
            let range = index.positions(path, rtype, name);
            assert_eq!(range.collect::<Vec<_>>(), *at, "{path:?} {rtype}.{name}");
        }
        assert!(index.positions(&[], "aws_s3_bucket", "off").is_empty());
        assert!(index
            .positions(&["c".to_owned()], "aws_vpc", "main")
            .is_empty());
    }

    #[test]
    fn vm_nic_region_mismatch_caught_at_compile_time() {
        let d = diags(
            r#"
resource "azure_network_interface" "n1" {
  name     = "n1"
  location = "westeurope"
}
resource "azure_virtual_machine" "vm1" {
  name     = "vm1"
  location = "eastus"
  nic_ids  = [azure_network_interface.n1.id]
}
"#,
        );
        let err = d.items.iter().find(|x| x.code == "VAL301").expect("VAL301");
        // the message names both resources and both regions — unlike the
        // cloud's "NIC is not found"
        assert!(err.message.contains("westeurope"));
        assert!(err.message.contains("eastus"));
        assert!(err.message.contains("azure_network_interface.n1"));
    }

    #[test]
    fn vm_nic_same_region_passes() {
        let d = diags(
            r#"
resource "azure_network_interface" "n1" {
  name     = "n1"
  location = "eastus"
}
resource "azure_virtual_machine" "vm1" {
  name     = "vm1"
  location = "eastus"
  nic_ids  = [azure_network_interface.n1.id]
}
"#,
        );
        assert!(!d.items.iter().any(|x| x.code == "VAL301"), "{d}");
    }

    #[test]
    fn password_flag_rule() {
        let bad = diags(
            r#"
resource "azure_virtual_machine" "vm" {
  name           = "vm"
  location       = "eastus"
  nic_ids        = []
  admin_password = "hunter2"
}
"#,
        );
        assert!(bad.items.iter().any(|x| x.code == "VAL302"));
        let good = diags(
            r#"
resource "azure_virtual_machine" "vm" {
  name                            = "vm"
  location                        = "eastus"
  nic_ids                         = []
  admin_password                  = "hunter2"
  disable_password_authentication = false
}
"#,
        );
        assert!(!good.items.iter().any(|x| x.code == "VAL302"));
    }

    #[test]
    fn password_expression_folding_to_null_passes() {
        // Deferred expression that partial evaluation resolves to null: the
        // VM has no password, so requiring the disable flag was a false
        // positive before folding was applied here.
        let d = diags(
            r#"
resource "azure_virtual_machine" "other" {
  name     = "other"
  location = "eastus"
  nic_ids  = []
}
resource "azure_virtual_machine" "vm" {
  name           = "vm"
  location       = "eastus"
  nic_ids        = []
  admin_password = false ? azure_virtual_machine.other.id : null
}
"#,
        );
        assert!(
            !d.items.iter().any(|x| x.code == "VAL302"),
            "folds to null, no password: {d}"
        );
    }

    #[test]
    fn password_expression_folding_to_value_is_error() {
        let d = diags(
            r#"
resource "azure_virtual_machine" "other" {
  name     = "other"
  location = "eastus"
  nic_ids  = []
}
resource "azure_virtual_machine" "vm" {
  name           = "vm"
  location       = "eastus"
  nic_ids        = []
  admin_password = false ? azure_virtual_machine.other.id : "hunter2"
}
"#,
        );
        let f = d.items.iter().find(|x| x.code == "VAL302").expect("VAL302");
        assert_eq!(f.severity, cloudless_hcl::Severity::Error);
    }

    #[test]
    fn password_expression_truly_unknown_downgrades_to_warning() {
        let d = diags(
            r#"
resource "azure_virtual_machine" "other" {
  name     = "other"
  location = "eastus"
  nic_ids  = []
}
resource "azure_virtual_machine" "vm" {
  name           = "vm"
  location       = "eastus"
  nic_ids        = []
  admin_password = azure_virtual_machine.other.id
}
"#,
        );
        let f = d.items.iter().find(|x| x.code == "VAL302").expect("VAL302");
        assert_eq!(
            f.severity,
            cloudless_hcl::Severity::Warning,
            "unknowable at plan time must not be a hard error: {d}"
        );
    }

    #[test]
    fn peering_overlap_detected() {
        let d = diags(
            r#"
resource "azure_resource_group" "rg" {
  name     = "rg"
  location = "eastus"
}
resource "azure_virtual_network" "a" {
  name           = "a"
  resource_group = azure_resource_group.rg.id
  address_space  = "10.0.0.0/16"
}
resource "azure_virtual_network" "b" {
  name           = "b"
  resource_group = azure_resource_group.rg.id
  address_space  = "10.0.128.0/17"
}
resource "azure_vnet_peering" "p" {
  vnet_id        = azure_virtual_network.a.id
  remote_vnet_id = azure_virtual_network.b.id
}
"#,
        );
        assert!(d.items.iter().any(|x| x.code == "VAL303"));
    }

    #[test]
    fn subnet_containment() {
        let bad = diags(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "192.168.0.0/24"
}
"#,
        );
        assert!(bad.items.iter().any(|x| x.code == "VAL304"));
        let good = diags(
            r#"
resource "aws_vpc" "v" { cidr_block = "10.0.0.0/16" }
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.3.0/24"
}
"#,
        );
        assert!(!good.items.iter().any(|x| x.code == "VAL304"));
    }

    #[test]
    fn port_rule() {
        let d = diags(
            r#"
resource "aws_security_group" "sg" {
  name = "web"
  ingress {
    port = 99999
  }
}
"#,
        );
        assert!(d.items.iter().any(|x| x.code == "VAL305"));
    }

    #[test]
    fn duplicate_global_names() {
        let d = diags(
            r#"
resource "aws_s3_bucket" "a" { bucket = "logs" }
resource "aws_s3_bucket" "b" { bucket = "logs" }
"#,
        );
        assert!(d.items.iter().any(|x| x.code == "VAL306"));
    }

    #[test]
    fn quota_preflight() {
        // azure_vpn_gateway quota is 8
        let d = diags(
            r#"
resource "azure_virtual_network" "n" {
  name           = "n"
  resource_group = azure_resource_group.rg.id
  address_space  = "10.0.0.0/16"
}
resource "azure_resource_group" "rg" {
  name     = "rg"
  location = "eastus"
}
resource "azure_vpn_gateway" "g" {
  count   = 9
  name    = "g-${count.index}"
  vnet_id = azure_virtual_network.n.id
}
"#,
        );
        assert!(d.items.iter().any(|x| x.code == "VAL307"));
    }
}
