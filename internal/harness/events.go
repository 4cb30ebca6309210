package harness

import (
	"fmt"

	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/workloads"
)

// ClusterEvents converts a workload event schedule to the cluster
// layer's lifecycle events. Joining machines inherit machine 0's
// configuration (Event.Config nil).
func ClusterEvents(events []workloads.FleetEvent) ([]cluster.Event, error) {
	out := make([]cluster.Event, 0, len(events))
	for _, e := range events {
		var kind cluster.EventKind
		switch e.Kind {
		case "join":
			kind = cluster.MachineJoin
		case "drain":
			kind = cluster.MachineDrain
		case "fail":
			kind = cluster.MachineFail
		default:
			return nil, fmt.Errorf("harness: fleet event at t=%g: unknown kind %q", e.Time, e.Kind)
		}
		out = append(out, cluster.Event{Time: e.Time, Kind: kind, Machine: e.Machine})
	}
	return out, nil
}
