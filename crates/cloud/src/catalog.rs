//! The resource-type catalog: schemas for every type the simulated clouds
//! offer.
//!
//! Each [`ResourceSchema`] describes a type's attributes, which of them are
//! *computed* (assigned by the cloud: `id`, `ip_address`…), which are
//! required, and — crucially for §3.2 — each attribute's [`SemanticType`].
//! Terraform treats a NIC id and a subnet id both as "string"; the semantic
//! type records that `nic_ids` is specifically *a list of references to
//! `aws_network_interface` resources*, which lets the validator reject
//! cross-type reference mix-ups at compile time instead of deploy time.

use std::collections::BTreeMap;

use cloudless_types::{Provider, ResourceTypeName, SimDuration, Value, ValueKind};
use serde::{Deserialize, Serialize};

/// The wire-level kind an attribute must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrKind {
    Str,
    Num,
    Bool,
    List,
    Map,
}

impl AttrKind {
    /// Whether a concrete value matches this kind.
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v.kind()),
            (AttrKind::Str, ValueKind::Str)
                | (AttrKind::Num, ValueKind::Num)
                | (AttrKind::Bool, ValueKind::Bool)
                | (AttrKind::List, ValueKind::List)
                | (AttrKind::Map, ValueKind::Map)
        )
    }
}

impl std::fmt::Display for AttrKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttrKind::Str => "string",
            AttrKind::Num => "number",
            AttrKind::Bool => "bool",
            AttrKind::List => "list",
            AttrKind::Map => "map",
        };
        f.write_str(s)
    }
}

/// The *semantic* type of an attribute — the information the paper says
/// today's "weakly typed" IaC languages throw away (§3.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SemanticType {
    /// No extra semantics beyond the wire kind.
    Plain,
    /// A human-chosen resource name.
    Name,
    /// A cloud region name valid for this provider.
    Region,
    /// An IPv4 CIDR block.
    Cidr,
    /// A TCP/UDP port number (0–65535).
    Port,
    /// A secret; subject to policy rules (e.g. Azure's
    /// `disable_password_authentication` interplay).
    Password,
    /// A reference to the cloud-assigned id of a resource of the given type.
    RefTo(ResourceTypeName),
    /// A list whose elements are references to the given type.
    ListOfRefs(ResourceTypeName),
}

/// Schema of one attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrSchema {
    pub name: String,
    pub kind: AttrKind,
    pub semantic: SemanticType,
    /// Must be supplied by the user.
    pub required: bool,
    /// Assigned by the cloud at create time; cannot be supplied by the user.
    pub computed: bool,
    /// Changing this attribute forces destroy-and-recreate (like
    /// Terraform's `ForceNew`). Drives the rollback reversibility analysis
    /// (§3.4).
    pub force_new: bool,
}

impl AttrSchema {
    fn new(name: &str, kind: AttrKind) -> Self {
        AttrSchema {
            name: name.to_owned(),
            kind,
            semantic: SemanticType::Plain,
            required: false,
            computed: false,
            force_new: false,
        }
    }

    fn required(mut self) -> Self {
        self.required = true;
        self
    }

    fn computed(mut self) -> Self {
        self.computed = true;
        self
    }

    fn force_new(mut self) -> Self {
        self.force_new = true;
        self
    }

    fn semantic(mut self, s: SemanticType) -> Self {
        self.semantic = s;
        self
    }
}

/// Schema of one resource type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceSchema {
    pub rtype: ResourceTypeName,
    pub provider: Provider,
    /// Attribute schemas, keyed by name.
    pub attrs: BTreeMap<String, AttrSchema>,
    /// Mean provisioning latency for a create operation.
    pub create_latency: SimDuration,
    /// Mean latency for in-place updates.
    pub update_latency: SimDuration,
    /// Mean latency for deletes.
    pub delete_latency: SimDuration,
    /// Default per-region quota (instances of this type).
    pub default_quota: u32,
}

impl ResourceSchema {
    /// Look up an attribute schema.
    pub fn attr(&self, name: &str) -> Option<&AttrSchema> {
        self.attrs.get(name)
    }

    /// The schema of `name` when a program may set it: declared, and not
    /// computed. Everything that writes live state back as code keeps
    /// exactly these attributes.
    pub fn settable(&self, name: &str) -> Option<&AttrSchema> {
        self.attr(name).filter(|a| !a.computed)
    }

    /// All required, non-computed attributes.
    pub fn required_attrs(&self) -> impl Iterator<Item = &AttrSchema> {
        self.attrs.values().filter(|a| a.required && !a.computed)
    }

    /// All computed attributes.
    pub fn computed_attrs(&self) -> impl Iterator<Item = &AttrSchema> {
        self.attrs.values().filter(|a| a.computed)
    }
}

/// The full multi-cloud catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    types: BTreeMap<ResourceTypeName, ResourceSchema>,
}

impl Catalog {
    /// The standard catalog used across the test and benchmark suite:
    /// 30+ types spanning the three providers, with realistic provisioning
    /// latencies (a VPN gateway takes ~40 virtual minutes; a bucket takes
    /// seconds).
    pub fn standard() -> Self {
        let mut c = Catalog::default();

        // ---------- AWS-like ----------
        c.add(schema(
            "aws_vpc",
            Provider::Aws,
            secs(15),
            secs(8),
            secs(10),
            50,
            vec![
                AttrSchema::new("cidr_block", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Cidr),
                AttrSchema::new("name", AttrKind::Str).semantic(SemanticType::Name),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("arn", AttrKind::Str).computed(),
                AttrSchema::new("tags", AttrKind::Map),
            ],
        ));
        c.add(schema(
            "aws_subnet",
            Provider::Aws,
            secs(20),
            secs(10),
            secs(12),
            200,
            vec![
                AttrSchema::new("vpc_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("aws_vpc".into())),
                AttrSchema::new("cidr_block", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Cidr),
                AttrSchema::new("availability_zone", AttrKind::Str),
                AttrSchema::new("name", AttrKind::Str).semantic(SemanticType::Name),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("tags", AttrKind::Map),
            ],
        ));
        c.add(schema(
            "aws_network_interface",
            Provider::Aws,
            secs(25),
            secs(12),
            secs(15),
            500,
            vec![
                AttrSchema::new("subnet_id", AttrKind::Str)
                    .force_new()
                    .semantic(SemanticType::RefTo("aws_subnet".into())),
                AttrSchema::new("name", AttrKind::Str).semantic(SemanticType::Name),
                AttrSchema::new("location", AttrKind::Str).semantic(SemanticType::Region),
                AttrSchema::new("private_ip", AttrKind::Str).computed(),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("tags", AttrKind::Map),
            ],
        ));
        c.add(schema(
            "aws_virtual_machine",
            Provider::Aws,
            mins(3),
            secs(45),
            secs(60),
            100,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("instance_type", AttrKind::Str),
                AttrSchema::new("nic_ids", AttrKind::List)
                    .semantic(SemanticType::ListOfRefs("aws_network_interface".into())),
                AttrSchema::new("subnet_id", AttrKind::Str)
                    .semantic(SemanticType::RefTo("aws_subnet".into())),
                AttrSchema::new("user_data", AttrKind::Str),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("public_ip", AttrKind::Str).computed(),
                AttrSchema::new("tags", AttrKind::Map),
            ],
        ));
        c.add(schema(
            "aws_security_group",
            Provider::Aws,
            secs(10),
            secs(6),
            secs(8),
            500,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("vpc_id", AttrKind::Str)
                    .semantic(SemanticType::RefTo("aws_vpc".into())),
                AttrSchema::new("ingress", AttrKind::List),
                AttrSchema::new("egress", AttrKind::List),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "aws_s3_bucket",
            Provider::Aws,
            secs(8),
            secs(5),
            secs(6),
            1000,
            vec![
                AttrSchema::new("bucket", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Name),
                AttrSchema::new("acl", AttrKind::Str),
                AttrSchema::new("versioning", AttrKind::Bool),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("arn", AttrKind::Str).computed(),
                AttrSchema::new("tags", AttrKind::Map),
            ],
        ));
        c.add(schema(
            "aws_db_instance",
            Provider::Aws,
            mins(8),
            mins(2),
            mins(3),
            40,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("engine", AttrKind::Str)
                    .required()
                    .force_new(),
                AttrSchema::new("instance_class", AttrKind::Str),
                AttrSchema::new("allocated_storage", AttrKind::Num),
                AttrSchema::new("subnet_id", AttrKind::Str)
                    .semantic(SemanticType::RefTo("aws_subnet".into())),
                AttrSchema::new("password", AttrKind::Str).semantic(SemanticType::Password),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("endpoint", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "aws_load_balancer",
            Provider::Aws,
            mins(4),
            secs(50),
            mins(1),
            60,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("subnet_ids", AttrKind::List)
                    .semantic(SemanticType::ListOfRefs("aws_subnet".into())),
                AttrSchema::new("target_ids", AttrKind::List)
                    .semantic(SemanticType::ListOfRefs("aws_virtual_machine".into())),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("dns_name", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "aws_internet_gateway",
            Provider::Aws,
            secs(18),
            secs(10),
            secs(12),
            50,
            vec![
                AttrSchema::new("vpc_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("aws_vpc".into())),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "aws_route_table",
            Provider::Aws,
            secs(12),
            secs(8),
            secs(9),
            200,
            vec![
                AttrSchema::new("vpc_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("aws_vpc".into())),
                AttrSchema::new("routes", AttrKind::List),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "aws_vpn_gateway",
            Provider::Aws,
            mins(40),
            mins(10),
            mins(15),
            10,
            vec![
                AttrSchema::new("vpc_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("aws_vpc".into())),
                AttrSchema::new("name", AttrKind::Str).semantic(SemanticType::Name),
                AttrSchema::new("capacity_mbps", AttrKind::Num),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "aws_vpn_tunnel",
            Provider::Aws,
            mins(5),
            mins(1),
            mins(2),
            80,
            vec![
                AttrSchema::new("gateway_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("aws_vpn_gateway".into())),
                AttrSchema::new("peer_ip", AttrKind::Str),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "aws_eks_cluster",
            Provider::Aws,
            mins(12),
            mins(4),
            mins(6),
            10,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Name),
                AttrSchema::new("subnet_ids", AttrKind::List)
                    .semantic(SemanticType::ListOfRefs("aws_subnet".into())),
                AttrSchema::new("version", AttrKind::Str),
                AttrSchema::new("node_count", AttrKind::Num),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("endpoint", AttrKind::Str).computed(),
            ],
        ));

        // ---------- Azure-like ----------
        c.add(schema(
            "azure_resource_group",
            Provider::Azure,
            secs(6),
            secs(4),
            secs(30),
            100,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Name),
                AttrSchema::new("location", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Region),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("tags", AttrKind::Map),
            ],
        ));
        c.add(schema(
            "azure_virtual_network",
            Provider::Azure,
            secs(25),
            secs(12),
            secs(15),
            100,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("resource_group", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::RefTo("azure_resource_group".into())),
                AttrSchema::new("address_space", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Cidr),
                AttrSchema::new("location", AttrKind::Str).semantic(SemanticType::Region),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "azure_subnet",
            Provider::Azure,
            secs(18),
            secs(9),
            secs(10),
            400,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("vnet_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("azure_virtual_network".into())),
                AttrSchema::new("address_prefix", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Cidr),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "azure_network_interface",
            Provider::Azure,
            secs(30),
            secs(14),
            secs(16),
            500,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("location", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Region),
                AttrSchema::new("subnet_id", AttrKind::Str)
                    .semantic(SemanticType::RefTo("azure_subnet".into())),
                AttrSchema::new("private_ip", AttrKind::Str).computed(),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "azure_virtual_machine",
            Provider::Azure,
            mins(4),
            mins(1),
            secs(80),
            100,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("location", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Region),
                AttrSchema::new("size", AttrKind::Str),
                AttrSchema::new("nic_ids", AttrKind::List)
                    .required()
                    .semantic(SemanticType::ListOfRefs("azure_network_interface".into())),
                AttrSchema::new("admin_password", AttrKind::Str).semantic(SemanticType::Password),
                AttrSchema::new("disable_password_authentication", AttrKind::Bool),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("public_ip", AttrKind::Str).computed(),
                AttrSchema::new("tags", AttrKind::Map),
            ],
        ));
        c.add(schema(
            "azure_vnet_peering",
            Provider::Azure,
            secs(40),
            secs(20),
            secs(22),
            100,
            vec![
                AttrSchema::new("name", AttrKind::Str).semantic(SemanticType::Name),
                AttrSchema::new("vnet_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("azure_virtual_network".into())),
                AttrSchema::new("remote_vnet_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("azure_virtual_network".into())),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "azure_storage_account",
            Provider::Azure,
            secs(35),
            secs(15),
            secs(18),
            250,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Name),
                AttrSchema::new("resource_group", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::RefTo("azure_resource_group".into())),
                AttrSchema::new("location", AttrKind::Str).semantic(SemanticType::Region),
                AttrSchema::new("tier", AttrKind::Str),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "azure_vpn_gateway",
            Provider::Azure,
            mins(42),
            mins(12),
            mins(18),
            8,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("vnet_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("azure_virtual_network".into())),
                AttrSchema::new("location", AttrKind::Str).semantic(SemanticType::Region),
                AttrSchema::new("capacity_mbps", AttrKind::Num),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "azure_lb",
            Provider::Azure,
            mins(2),
            secs(40),
            secs(50),
            80,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("location", AttrKind::Str).semantic(SemanticType::Region),
                AttrSchema::new("backend_nic_ids", AttrKind::List)
                    .semantic(SemanticType::ListOfRefs("azure_network_interface".into())),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "azure_sql_database",
            Provider::Azure,
            mins(6),
            mins(2),
            mins(2),
            40,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("resource_group", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::RefTo("azure_resource_group".into())),
                AttrSchema::new("admin_password", AttrKind::Str).semantic(SemanticType::Password),
                AttrSchema::new("sku", AttrKind::Str),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("endpoint", AttrKind::Str).computed(),
            ],
        ));

        // ---------- GCP-like ----------
        c.add(schema(
            "gcp_network",
            Provider::Gcp,
            secs(22),
            secs(11),
            secs(14),
            60,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Name),
                AttrSchema::new("auto_create_subnetworks", AttrKind::Bool),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "gcp_subnetwork",
            Provider::Gcp,
            secs(20),
            secs(10),
            secs(12),
            300,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("network_id", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::RefTo("gcp_network".into())),
                AttrSchema::new("ip_cidr_range", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Cidr),
                AttrSchema::new("region", AttrKind::Str).semantic(SemanticType::Region),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "gcp_compute_instance",
            Provider::Gcp,
            mins(2),
            secs(40),
            secs(45),
            150,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("machine_type", AttrKind::Str),
                AttrSchema::new("subnetwork_id", AttrKind::Str)
                    .semantic(SemanticType::RefTo("gcp_subnetwork".into())),
                AttrSchema::new("zone", AttrKind::Str),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("internal_ip", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "gcp_storage_bucket",
            Provider::Gcp,
            secs(7),
            secs(4),
            secs(5),
            1000,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Name),
                AttrSchema::new("location", AttrKind::Str).semantic(SemanticType::Region),
                AttrSchema::new("storage_class", AttrKind::Str),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "gcp_sql_instance",
            Provider::Gcp,
            mins(7),
            mins(2),
            mins(3),
            30,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Name),
                AttrSchema::new("database_version", AttrKind::Str),
                AttrSchema::new("tier", AttrKind::Str),
                AttrSchema::new("root_password", AttrKind::Str).semantic(SemanticType::Password),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("connection_name", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "gcp_gke_cluster",
            Provider::Gcp,
            mins(11),
            mins(4),
            mins(5),
            10,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Name),
                AttrSchema::new("network_id", AttrKind::Str)
                    .semantic(SemanticType::RefTo("gcp_network".into())),
                AttrSchema::new("node_count", AttrKind::Num),
                AttrSchema::new("id", AttrKind::Str).computed(),
                AttrSchema::new("endpoint", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "gcp_firewall_rule",
            Provider::Gcp,
            secs(12),
            secs(7),
            secs(8),
            500,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::Name),
                AttrSchema::new("network_id", AttrKind::Str)
                    .required()
                    .semantic(SemanticType::RefTo("gcp_network".into())),
                AttrSchema::new("allow_ports", AttrKind::List),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));
        c.add(schema(
            "gcp_dns_zone",
            Provider::Gcp,
            secs(9),
            secs(5),
            secs(6),
            100,
            vec![
                AttrSchema::new("name", AttrKind::Str)
                    .required()
                    .force_new()
                    .semantic(SemanticType::Name),
                AttrSchema::new("dns_name", AttrKind::Str).required(),
                AttrSchema::new("id", AttrKind::Str).computed(),
            ],
        ));

        c
    }

    /// Register (or replace) a schema.
    pub fn add(&mut self, schema: ResourceSchema) {
        self.types.insert(schema.rtype.clone(), schema);
    }

    /// Look up a type.
    pub fn get(&self, rtype: &ResourceTypeName) -> Option<&ResourceSchema> {
        self.types.get(rtype)
    }

    /// Look up by type name string.
    pub fn get_str(&self, rtype: &str) -> Option<&ResourceSchema> {
        self.types.get(&ResourceTypeName::new(rtype))
    }

    /// Whether the catalog knows this type.
    pub fn contains(&self, rtype: &ResourceTypeName) -> bool {
        self.types.contains_key(rtype)
    }

    /// All schemas, deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &ResourceSchema> {
        self.types.values()
    }

    /// Number of types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

fn schema(
    rtype: &str,
    provider: Provider,
    create: SimDuration,
    update: SimDuration,
    delete: SimDuration,
    quota: u32,
    attrs: Vec<AttrSchema>,
) -> ResourceSchema {
    ResourceSchema {
        rtype: ResourceTypeName::new(rtype),
        provider,
        attrs: attrs.into_iter().map(|a| (a.name.clone(), a)).collect(),
        create_latency: create,
        update_latency: update,
        delete_latency: delete,
        default_quota: quota,
    }
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_has_all_providers() {
        let c = Catalog::standard();
        assert!(c.len() >= 28, "expected a rich catalog, got {}", c.len());
        for p in Provider::ALL {
            let types = c.iter().filter(|s| s.provider == p).count();
            assert!(types >= 8, "{p} needs at least 8 types");
        }
    }

    #[test]
    fn type_prefixes_match_providers() {
        let c = Catalog::standard();
        for s in c.iter() {
            assert_eq!(
                Provider::from_type_prefix(s.rtype.provider_prefix()),
                Some(s.provider),
                "{} prefix mismatch",
                s.rtype
            );
        }
    }

    #[test]
    fn every_type_has_computed_id() {
        let c = Catalog::standard();
        for s in c.iter() {
            let id = s
                .attr("id")
                .unwrap_or_else(|| panic!("{} lacks id", s.rtype));
            assert!(id.computed, "{} id must be computed", s.rtype);
        }
    }

    #[test]
    fn required_attrs_are_never_computed() {
        let c = Catalog::standard();
        for s in c.iter() {
            for a in s.attrs.values() {
                assert!(
                    !(a.required && a.computed),
                    "{}.{} is both required and computed",
                    s.rtype,
                    a.name
                );
            }
        }
    }

    #[test]
    fn ref_semantics_point_at_known_types() {
        let c = Catalog::standard();
        for s in c.iter() {
            for a in s.attrs.values() {
                let target = match &a.semantic {
                    SemanticType::RefTo(t) | SemanticType::ListOfRefs(t) => t,
                    _ => continue,
                };
                assert!(
                    c.contains(target),
                    "{}.{} references unknown type {}",
                    s.rtype,
                    a.name,
                    target
                );
                // references stay within one provider in this catalog
                assert_eq!(
                    c.get(target).unwrap().provider,
                    s.provider,
                    "{}.{} crosses providers",
                    s.rtype,
                    a.name
                );
            }
        }
    }

    #[test]
    fn latencies_are_heterogeneous() {
        let c = Catalog::standard();
        let vpn = c.get_str("azure_vpn_gateway").unwrap();
        let bucket = c.get_str("gcp_storage_bucket").unwrap();
        // two orders of magnitude spread — the critical-path experiments
        // depend on this heterogeneity
        assert!(vpn.create_latency.millis() > 100 * bucket.create_latency.millis());
    }

    #[test]
    fn attr_kind_admission() {
        assert!(AttrKind::Str.admits(&Value::from("x")));
        assert!(!AttrKind::Str.admits(&Value::Num(1.0)));
        assert!(AttrKind::List.admits(&Value::List(vec![])));
        assert!(AttrKind::Map.admits(&Value::Map(Default::default())));
        assert!(AttrKind::Bool.admits(&Value::Bool(true)));
        assert!(!AttrKind::Num.admits(&Value::Null));
    }
}
