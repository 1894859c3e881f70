// Package catalog is the component database behind the Skyline tool: UAV
// airframes, onboard compute platforms, sensors, autonomy algorithms,
// and the measured (algorithm × platform) → throughput table. Every
// number published in the paper appears here as a preset; quantities the
// paper leaves implicit are calibrated from its published knee points
// and safe velocities (see presets.go for each derivation).
package catalog

import (
	"fmt"
	"sort"

	"repro/internal/physics"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Paradigm classifies autonomy algorithms (§II-E).
type Paradigm int

const (
	// SensePlanAct: staged sensing → mapping → planning → control.
	SensePlanAct Paradigm = iota
	// EndToEnd: a learned model maps sensor input directly to actions.
	EndToEnd
)

// String implements fmt.Stringer.
func (p Paradigm) String() string {
	switch p {
	case SensePlanAct:
		return "sense-plan-act"
	case EndToEnd:
		return "end-to-end"
	default:
		return fmt.Sprintf("Paradigm(%d)", int(p))
	}
}

// SizeClass is the paper's Fig. 2b taxonomy.
type SizeClass int

const (
	// NanoUAV: ~tens of mm frames, ~240 mAh, ~7 min endurance.
	NanoUAV SizeClass = iota
	// MicroUAV: ~250 mm frames, ~1300 mAh, ~15 min endurance.
	MicroUAV
	// MiniUAV: ≥335 mm frames, ~3830 mAh, ~30 min endurance.
	MiniUAV
)

// String implements fmt.Stringer.
func (s SizeClass) String() string {
	switch s {
	case NanoUAV:
		return "nano-UAV"
	case MicroUAV:
		return "micro-UAV"
	case MiniUAV:
		return "mini-UAV"
	default:
		return fmt.Sprintf("SizeClass(%d)", int(s))
	}
}

// Compute describes an onboard computer or accelerator.
type Compute struct {
	// Name identifies the platform ("Nvidia TX2", "Intel NCS", ...).
	Name string
	// Mass is the bare module/board mass without heatsink.
	Mass units.Mass
	// TDP is the thermal design power; it sizes the heatsink and enters
	// the mission energy model.
	TDP units.Power
	// NeedsHeatsink is false for platforms that dissipate passively
	// without added metal (USB-stick NCS, milliwatt accelerators).
	NeedsHeatsink bool
	// SupportMass is extra fixed mass the platform drags along (e.g. the
	// validation drones' dedicated compute battery).
	SupportMass units.Mass
}

// TotalMass is the payload the platform actually costs: module +
// heatsink (sized for its TDP) + support mass.
func (c Compute) TotalMass(hs thermal.HeatsinkModel) units.Mass {
	m := c.Mass + c.SupportMass
	if c.NeedsHeatsink {
		m += hs.HeatsinkMass(c.TDP)
	}
	return m
}

// WithTDP derives a power-capped variant of the platform, renamed with
// the new TDP — the paper's "Nvidia AGX-15W" scenario where an
// architectural optimization halves power at equal throughput.
func (c Compute) WithTDP(tdp units.Power) Compute {
	out := c
	out.TDP = tdp
	out.Name = fmt.Sprintf("%s (%v)", c.Name, tdp)
	return out
}

// Sensor describes an environment sensor.
type Sensor struct {
	// Name identifies the sensor.
	Name string
	// Rate is the frame rate f_sensor.
	Rate units.Frequency
	// Range is the sensing distance d.
	Range units.Length
	// Mass is the sensor's payload cost.
	Mass units.Mass
}

// Algorithm describes an autonomy algorithm.
type Algorithm struct {
	// Name identifies the algorithm ("DroNet", "TrailNet", ...).
	Name string
	// Paradigm is SPA or end-to-end.
	Paradigm Paradigm
}

// UAV describes a complete airframe preset.
type UAV struct {
	// Name identifies the vehicle.
	Name string
	// Frame is the mechanical airframe.
	Frame physics.Airframe
	// Accel converts payload mass to a_max for this vehicle.
	Accel physics.AccelModel
	// DefaultSensor is the sensor the paper pairs with this vehicle.
	DefaultSensor Sensor
	// Class is the Fig. 2b size class.
	Class SizeClass
	// Battery capacity and pack voltage, for the mission energy model.
	Battery        units.Charge
	BatteryVoltage float64
	// Endurance is the nominal hover endurance.
	Endurance units.Latency
	// ControlRate is the flight controller loop rate (≈1 kHz).
	ControlRate units.Frequency
}

// Catalog holds every registered component plus the performance table.
type Catalog struct {
	uavs       map[string]UAV
	computes   map[string]Compute
	sensors    map[string]Sensor
	algorithms map[string]Algorithm
	perf       PerfTable
	// Heatsink sizes compute-platform heatsinks; defaults to the
	// paper-anchored power law.
	Heatsink thermal.HeatsinkModel
}

// New returns an empty catalog with the default heatsink model.
func New() *Catalog {
	return &Catalog{
		uavs:       make(map[string]UAV),
		computes:   make(map[string]Compute),
		sensors:    make(map[string]Sensor),
		algorithms: make(map[string]Algorithm),
		perf:       make(PerfTable),
		Heatsink:   thermal.DefaultPowerLaw,
	}
}

// AddUAV registers (or replaces) a vehicle preset.
func (c *Catalog) AddUAV(u UAV) { c.uavs[u.Name] = u }

// AddCompute registers (or replaces) a compute platform.
func (c *Catalog) AddCompute(p Compute) { c.computes[p.Name] = p }

// AddSensor registers (or replaces) a sensor.
func (c *Catalog) AddSensor(s Sensor) { c.sensors[s.Name] = s }

// AddAlgorithm registers (or replaces) an algorithm.
func (c *Catalog) AddAlgorithm(a Algorithm) { c.algorithms[a.Name] = a }

// UAV looks up a vehicle by name.
func (c *Catalog) UAV(name string) (UAV, error) {
	u, ok := c.uavs[name]
	if !ok {
		return UAV{}, fmt.Errorf("catalog: unknown UAV %q (have %v)", name, c.UAVNames())
	}
	return u, nil
}

// Compute looks up a compute platform by name.
func (c *Catalog) Compute(name string) (Compute, error) {
	p, ok := c.computes[name]
	if !ok {
		return Compute{}, fmt.Errorf("catalog: unknown compute %q (have %v)", name, c.ComputeNames())
	}
	return p, nil
}

// Sensor looks up a sensor by name.
func (c *Catalog) Sensor(name string) (Sensor, error) {
	s, ok := c.sensors[name]
	if !ok {
		return Sensor{}, fmt.Errorf("catalog: unknown sensor %q (have %v)", name, c.SensorNames())
	}
	return s, nil
}

// Algorithm looks up an algorithm by name.
func (c *Catalog) Algorithm(name string) (Algorithm, error) {
	a, ok := c.algorithms[name]
	if !ok {
		return Algorithm{}, fmt.Errorf("catalog: unknown algorithm %q (have %v)", name, c.AlgorithmNames())
	}
	return a, nil
}

// HasUAV reports whether a vehicle is registered. Unlike UAV it builds
// no unknown-name error, so a miss costs a map probe.
func (c *Catalog) HasUAV(name string) bool { _, ok := c.uavs[name]; return ok }

// HasCompute reports whether a compute platform is registered.
func (c *Catalog) HasCompute(name string) bool { _, ok := c.computes[name]; return ok }

// HasSensor reports whether a sensor is registered.
func (c *Catalog) HasSensor(name string) bool { _, ok := c.sensors[name]; return ok }

// HasAlgorithm reports whether an algorithm is registered.
func (c *Catalog) HasAlgorithm(name string) bool { _, ok := c.algorithms[name]; return ok }

// UAVNames returns the registered vehicle names, sorted.
func (c *Catalog) UAVNames() []string { return sortedKeys(c.uavs) }

// ComputeNames returns the registered platform names, sorted.
func (c *Catalog) ComputeNames() []string { return sortedKeys(c.computes) }

// SensorNames returns the registered sensor names, sorted.
func (c *Catalog) SensorNames() []string { return sortedKeys(c.sensors) }

// AlgorithmNames returns the registered algorithm names, sorted.
func (c *Catalog) AlgorithmNames() []string { return sortedKeys(c.algorithms) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	//reprolint:ordered keys are sorted below before the slice is returned
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PerfTable maps algorithm name → platform name → measured throughput.
type PerfTable map[string]map[string]units.Frequency

// Set records a measurement.
func (t PerfTable) Set(algorithm, platform string, f units.Frequency) {
	row, ok := t[algorithm]
	if !ok {
		row = make(map[string]units.Frequency)
		t[algorithm] = row
	}
	row[platform] = f
}

// Get returns the measured throughput for the pair, or an error naming
// what is missing.
func (t PerfTable) Get(algorithm, platform string) (units.Frequency, error) {
	row, ok := t[algorithm]
	if !ok {
		return 0, fmt.Errorf("catalog: no measurements for algorithm %q", algorithm)
	}
	f, ok := row[platform]
	if !ok {
		return 0, fmt.Errorf("catalog: algorithm %q has no measurement on platform %q", algorithm, platform)
	}
	return f, nil
}

// Platforms returns the platforms measured for an algorithm, sorted.
func (t PerfTable) Platforms(algorithm string) []string {
	return sortedKeys(t[algorithm])
}

// SetPerf records a throughput measurement in the catalog's table.
func (c *Catalog) SetPerf(algorithm, platform string, f units.Frequency) {
	c.perf.Set(algorithm, platform, f)
}

// Perf returns the catalog's measured throughput for the pair.
func (c *Catalog) Perf(algorithm, platform string) (units.Frequency, error) {
	return c.perf.Get(algorithm, platform)
}

// PerfTable exposes the underlying table (shared, not a copy).
func (c *Catalog) PerfTable() PerfTable { return c.perf }
