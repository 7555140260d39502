package grid

// BCKind selects the physical boundary condition applied to a domain face.
type BCKind int

// Supported boundary conditions.
const (
	// Absorbing extrapolates the interior state with zero gradient
	// (non-reflecting outflow); the default for open cloud simulations.
	Absorbing BCKind = iota
	// Reflecting mirrors the interior state and flips the normal momentum:
	// the solid wall of the paper's cloud-collapse setup.
	Reflecting
	// Periodic wraps around to the opposite side of the domain.
	Periodic
)

// String implements fmt.Stringer.
func (k BCKind) String() string {
	return [...]string{"absorbing", "reflecting", "periodic"}[k]
}

// BC assigns a boundary condition to each of the six domain faces.
type BC [6]BCKind

// DefaultBC is all-absorbing.
func DefaultBC() BC { return BC{} }

// WallBC returns absorbing conditions everywhere except a reflecting solid
// wall on the given face.
func WallBC(wall Face) BC {
	var bc BC
	bc[wall] = Reflecting
	return bc
}

// PeriodicBC returns fully periodic conditions.
func PeriodicBC() BC {
	return BC{Periodic, Periodic, Periodic, Periodic, Periodic, Periodic}
}
