package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hooks"
	"repro/internal/score"
	"repro/internal/telemetry"
)

// DeployNodeMonitors registers the standard Fact Vertices for one simulated
// node: per-device capacity/bandwidth/health and node CPU/memory/power.
// It returns the registered metric IDs.
func (s *Service) DeployNodeMonitors(n *cluster.Node) ([]telemetry.MetricID, error) {
	var ids []telemetry.MetricID
	add := func(h score.Hook) error {
		if _, err := s.RegisterMetric(h); err != nil {
			return fmt.Errorf("core: deploying %s: %w", h.Metric(), err)
		}
		ids = append(ids, h.Metric())
		return nil
	}
	for _, d := range n.Devices() {
		for _, h := range []score.Hook{
			hooks.DeviceRemaining(d),
			hooks.DeviceBandwidth(d),
			hooks.DeviceHealth(d),
		} {
			if err := add(h); err != nil {
				return ids, err
			}
		}
	}
	for _, h := range []score.Hook{
		hooks.NodeCPU(n),
		hooks.NodeMemUsed(n),
		hooks.NodePower(n),
		hooks.NodeOnline(n),
	} {
		if err := add(h); err != nil {
			return ids, err
		}
	}
	return ids, nil
}

// DeployAvailabilityInsight wires the Node Availability curation (Table 1
// row 9): one 0/1 online Fact per node and a summed insight
// ("cluster.online") whose value is the count of online nodes — the signal
// leader-election algorithms consume.
func (s *Service) DeployAvailabilityInsight(c *cluster.Cluster) (telemetry.MetricID, error) {
	var inputs []telemetry.MetricID
	for _, n := range c.Nodes() {
		h := hooks.NodeOnline(n)
		if _, ok := s.graph.Lookup(h.Metric()); !ok {
			if _, err := s.RegisterMetric(h); err != nil {
				return "", err
			}
		}
		inputs = append(inputs, h.Metric())
	}
	sink := telemetry.MetricID("cluster.online")
	if _, err := s.RegisterInsight(sink, inputs, score.Sum); err != nil {
		return "", err
	}
	return sink, nil
}

// DeployTierCapacityInsights wires the Figure-2 use case: per-node remaining
// capacity insights feeding one cluster-wide total-capacity insight. It
// returns the sink insight's metric ID ("cluster.capacity").
func (s *Service) DeployTierCapacityInsights(c *cluster.Cluster) (telemetry.MetricID, error) {
	var nodeInsights []telemetry.MetricID
	for _, n := range c.Nodes() {
		var deviceMetrics []telemetry.MetricID
		for _, d := range n.Devices() {
			id := telemetry.MetricID(d.ID() + ".capacity")
			if _, ok := s.graph.Lookup(id); !ok {
				if _, err := s.RegisterMetric(hooks.DeviceRemaining(d)); err != nil {
					return "", err
				}
			}
			deviceMetrics = append(deviceMetrics, id)
		}
		nodeID := telemetry.MetricID(n.ID + ".capacity")
		if _, err := s.RegisterInsight(nodeID, deviceMetrics, score.Sum); err != nil {
			return "", err
		}
		nodeInsights = append(nodeInsights, nodeID)
	}
	sink := telemetry.MetricID("cluster.capacity")
	if _, err := s.RegisterInsight(sink, nodeInsights, score.Sum); err != nil {
		return "", err
	}
	return sink, nil
}
