#include "thermal/package_model.hpp"

namespace thermctl::thermal {

PackageWiring PackageModel::wire_network(const PackageParams& params, RcNetwork& net) {
  // Build the three-node chain. Initial temperatures start at ambient; callers
  // that want a hot start use settle() after setting power/airflow.
  const ConvectionModel convection{params.convection};
  PackageWiring w;
  w.die = net.add_node("die", params.c_die, params.ambient);
  w.heatsink = net.add_node("heatsink", params.c_heatsink, params.ambient);
  w.ambient = net.add_fixed_node("ambient", params.ambient);
  w.die_hs = net.add_edge(w.die, w.heatsink, params.r_die_heatsink);
  w.hs_amb = net.add_edge(w.heatsink, w.ambient, convection.still_air_resistance());
  return w;
}

RcBatch PackageModel::make_batch(const PackageParams& params, std::size_t instances,
                                 PackageWiring* wiring) {
  RcNetwork tmpl;
  const PackageWiring w = wire_network(params, tmpl);
  if (wiring != nullptr) {
    *wiring = w;
  }
  return RcBatch{tmpl, instances};
}

PackageModel::PackageModel(const PackageParams& params)
    : PackageModel(params, std::make_unique<Standalone>(params)) {}

PackageModel::PackageModel(const PackageParams& params, std::unique_ptr<Standalone> owned)
    : PackageModel(params, owned->batch, 0, &owned->airflow_cfm, &owned->airflow_set) {
  owned_ = std::move(owned);
}

PackageModel::PackageModel(const PackageParams& params, RcBatch& batch, std::size_t slot,
                           double* airflow_cfm, std::uint8_t* airflow_set)
    : params_(params),
      convection_(params.convection),
      batch_(batch),
      slot_(slot),
      airflow_cfm_(airflow_cfm),
      airflow_set_(airflow_set) {
  // Wiring ids are deterministic (same build order as wire_network); recover
  // them structurally rather than hard-coding indices.
  RcNetwork probe;
  wiring_ = wire_network(params_, probe);
  THERMCTL_ASSERT(batch.matches(probe), "batch was not built from this package wiring");
  THERMCTL_ASSERT(slot < batch.instance_count(), "batch slot out of range");
  die_power_cell_ = batch.power_cell(slot, wiring_.die);
  die_temp_cell_ = batch.temperature_cell(slot, wiring_.die);
}

void PackageModel::set_ambient(Celsius t) {
  params_.ambient = t;
  batch_.set_fixed_temperature(slot_, wiring_.ambient, t);
}

Celsius PackageModel::steady_state_die(Watts p, Cfm v) const {
  // In steady state all die power flows through both resistances in series.
  const double r_total =
      params_.r_die_heatsink.value() + convection_.resistance(v).value();
  return Celsius{params_.ambient.value() + p.value() * r_total};
}

}  // namespace thermctl::thermal
