//! A monthly cost model for budget policies and reporting.
//!
//! §3.6: "an enterprise may require autoscaling policies while ensuring that
//! their infrastructure does not exceed their budget". Prices are flat
//! per-type monthly rates — stand-ins with realistic *relative* magnitudes
//! (a VPN gateway costs ~100× a bucket), which is all budget-gating logic
//! needs.

use std::collections::BTreeMap;

use cloudless_hcl::program::Manifest;

/// Monthly USD per resource type.
#[derive(Debug, Clone)]
pub struct CostModel {
    rates: BTreeMap<String, f64>,
    /// Applied to types without an explicit rate.
    pub default_rate: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        let rates: BTreeMap<String, f64> = [
            // networking fabric: cheap to free
            ("aws_vpc", 0.0),
            ("aws_subnet", 0.0),
            ("aws_route_table", 0.0),
            ("aws_internet_gateway", 18.0),
            ("aws_security_group", 0.0),
            ("azure_resource_group", 0.0),
            ("azure_virtual_network", 0.0),
            ("azure_subnet", 0.0),
            ("gcp_network", 0.0),
            ("gcp_subnetwork", 0.0),
            ("gcp_firewall_rule", 0.0),
            // compute
            ("aws_virtual_machine", 70.0),
            ("azure_virtual_machine", 75.0),
            ("gcp_compute_instance", 65.0),
            ("aws_network_interface", 3.0),
            ("azure_network_interface", 3.0),
            // storage
            ("aws_s3_bucket", 2.0),
            ("azure_storage_account", 4.0),
            ("gcp_storage_bucket", 2.0),
            // managed services
            ("aws_db_instance", 180.0),
            ("azure_sql_database", 190.0),
            ("gcp_sql_instance", 170.0),
            ("aws_load_balancer", 25.0),
            ("azure_lb", 23.0),
            ("aws_eks_cluster", 290.0),
            ("gcp_gke_cluster", 280.0),
            ("gcp_dns_zone", 1.0),
            // the paper's scaling example: gateways are pricey
            ("aws_vpn_gateway", 140.0),
            ("azure_vpn_gateway", 150.0),
            ("aws_vpn_tunnel", 36.0),
            ("azure_vnet_peering", 8.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        CostModel {
            rates,
            default_rate: 10.0,
        }
    }
}

impl CostModel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Monthly rate of one resource type.
    pub fn rate(&self, rtype: &str) -> f64 {
        self.rates.get(rtype).copied().unwrap_or(self.default_rate)
    }

    /// Estimated monthly cost of a desired manifest.
    pub fn manifest_monthly(&self, manifest: &Manifest) -> f64 {
        manifest
            .instances
            .iter()
            .map(|i| self.rate(i.addr.rtype.as_str()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_hcl::eval::MapResolver;
    use cloudless_hcl::program::{expand, ModuleLibrary, Program};
    use std::collections::BTreeMap;

    fn manifest(src: &str) -> Manifest {
        let p = Program::from_file(cloudless_hcl::parse(src, "t").unwrap()).unwrap();
        expand(
            &p,
            &BTreeMap::new(),
            &ModuleLibrary::new(),
            &MapResolver::new(),
        )
        .unwrap()
    }

    #[test]
    fn rates_and_the_default() {
        let model = CostModel::new();
        assert_eq!(model.rate("aws_vpc"), 0.0);
        assert_eq!(model.rate("azure_vpn_gateway"), 150.0);
        assert_eq!(model.rate("unknown_type"), 10.0);
    }

    #[test]
    fn manifest_cost_sums_instances() {
        let m = manifest(
            r#"
resource "aws_virtual_machine" "w" {
  count = 3
  name  = "w-${count.index}"
}
resource "aws_s3_bucket" "b" { bucket = "x" }
"#,
        );
        let model = CostModel::new();
        assert_eq!(model.manifest_monthly(&m), 3.0 * 70.0 + 2.0);
    }

    #[test]
    fn gateways_dominate_buckets() {
        // sanity on relative magnitudes the experiments rely on
        let model = CostModel::new();
        assert!(model.rate("azure_vpn_gateway") > 50.0 * model.rate("aws_s3_bucket"));
    }
}
