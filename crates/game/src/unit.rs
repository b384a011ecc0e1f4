//! Units: the rows of the game-state table.
//!
//! Every unit is one row with 13 attribute columns (Table 5). Positions
//! and combat state change frequently; identity-ish attributes (class,
//! team, squad) almost never — giving the realistic per-row skew the
//! paper's game trace exhibits ("many characters update their position
//! during each tick (possibly only in one dimension), but other attributes
//! such as health remain relatively stable").

/// Attribute column indexes (the 13 columns of the unit table).
pub mod attr {
    /// X position.
    pub const X: u32 = 0;
    /// Y position.
    pub const Y: u32 = 1;
    /// Hit points.
    pub const HEALTH: u32 = 2;
    /// Behavioural state (idle / moving / fighting / …).
    pub const STATE: u32 = 3;
    /// Current target unit id (or NONE).
    pub const TARGET: u32 = 4;
    /// Ticks until the unit may attack/heal again.
    pub const COOLDOWN: u32 = 5;
    /// Squad the unit belongs to.
    pub const SQUAD: u32 = 6;
    /// X coordinate of the movement goal.
    pub const GOAL_X: u32 = 7;
    /// Y coordinate of the movement goal.
    pub const GOAL_Y: u32 = 8;
    /// Stamina consumed by movement and combat.
    pub const STAMINA: u32 = 9;
    /// Cumulative damage dealt.
    pub const DAMAGE_DEALT: u32 = 10;
    /// Kill count.
    pub const KILLS: u32 = 11;
    /// Morale (raised by kills, lowered by damage taken).
    pub const MORALE: u32 = 12;
    /// Number of attribute columns.
    pub const COUNT: u32 = 13;
}

/// Sentinel for "no target".
pub const NO_TARGET: u32 = u32::MAX;

/// Character class. The battle fields roughly 2 knights : 1 archer : 1
/// healer, mirroring frontline-heavy medieval-combat compositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitClass {
    /// Melee attacker: pursues and engages nearby enemies.
    Knight,
    /// Ranged attacker: fights from distance, stays near allies.
    Archer,
    /// Support: heals the weakest nearby ally.
    Healer,
}

impl UnitClass {
    /// Deterministic class assignment by unit id: 50% knights, 25%
    /// archers, 25% healers.
    pub fn of(unit_id: u32) -> Self {
        match unit_id % 4 {
            0 | 1 => UnitClass::Knight,
            2 => UnitClass::Archer,
            _ => UnitClass::Healer,
        }
    }

    /// Base attack/heal cooldown in ticks.
    pub fn cooldown(self) -> u32 {
        match self {
            UnitClass::Knight => 2,
            UnitClass::Archer => 3,
            UnitClass::Healer => 4,
        }
    }

    /// Damage (or healing) per action.
    pub fn power(self) -> u32 {
        match self {
            UnitClass::Knight => 12,
            UnitClass::Archer => 8,
            UnitClass::Healer => 10,
        }
    }
}

/// Team affiliation. Each team has a home base in opposite map corners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Team {
    /// Red team, based in the south-west corner.
    Red,
    /// Blue team, based in the north-east corner.
    Blue,
}

impl Team {
    /// Deterministic team assignment: even squads are red, odd are blue,
    /// so squads are team-pure.
    pub fn of_squad(squad_id: u32) -> Self {
        if squad_id.is_multiple_of(2) {
            Team::Red
        } else {
            Team::Blue
        }
    }

    /// Home-base coordinates on a `map_size`-sided battlefield.
    pub fn base(self, map_size: u32) -> (u32, u32) {
        let margin = map_size / 16;
        match self {
            Team::Red => (margin, margin),
            Team::Blue => (map_size - 1 - margin, map_size - 1 - margin),
        }
    }
}

/// Mutable per-unit state mirrored into the game-state table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Unit id = row in the state table.
    pub id: u32,
    /// X position.
    pub x: u32,
    /// Y position.
    pub y: u32,
    /// Hit points (0 means awaiting respawn).
    pub health: u32,
    /// Behaviour state tag.
    pub state: u32,
    /// Current target unit id, or [`NO_TARGET`].
    pub target: u32,
    /// Remaining action cooldown.
    pub cooldown: u32,
    /// Squad id.
    pub squad: u32,
    /// Movement goal X.
    pub goal_x: u32,
    /// Movement goal Y.
    pub goal_y: u32,
    /// Stamina.
    pub stamina: u32,
    /// Cumulative damage dealt.
    pub damage_dealt: u32,
    /// Kills.
    pub kills: u32,
    /// Morale.
    pub morale: u32,
}

/// Behaviour state tags stored in [`attr::STATE`].
pub mod state {
    /// Logged off / out of the active set.
    pub const INACTIVE: u32 = 0;
    /// Active, no engagement.
    pub const IDLE: u32 = 1;
    /// Moving toward a goal.
    pub const MOVING: u32 = 2;
    /// In combat.
    pub const FIGHTING: u32 = 3;
    /// Healing an ally.
    pub const HEALING: u32 = 4;
}

impl Unit {
    /// Maximum hit points.
    pub const MAX_HEALTH: u32 = 100;

    /// The unit's class (fixed by id).
    pub fn class(&self) -> UnitClass {
        UnitClass::of(self.id)
    }

    /// The unit's team (fixed by squad).
    pub fn team(&self) -> Team {
        Team::of_squad(self.squad)
    }

    /// Squared Euclidean distance to a point.
    pub fn dist2(&self, x: u32, y: u32) -> u64 {
        let dx = i64::from(self.x) - i64::from(x);
        let dy = i64::from(self.y) - i64::from(y);
        (dx * dx + dy * dy) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_distribution_is_2_1_1() {
        let mut counts = [0u32; 3];
        for id in 0..1000 {
            match UnitClass::of(id) {
                UnitClass::Knight => counts[0] += 1,
                UnitClass::Archer => counts[1] += 1,
                UnitClass::Healer => counts[2] += 1,
            }
        }
        assert_eq!(counts, [500, 250, 250]);
    }

    #[test]
    fn squads_are_team_pure() {
        assert_eq!(Team::of_squad(0), Team::Red);
        assert_eq!(Team::of_squad(1), Team::Blue);
        assert_eq!(Team::of_squad(2), Team::Red);
    }

    #[test]
    fn bases_are_in_opposite_corners() {
        let (rx, ry) = Team::Red.base(4096);
        let (bx, by) = Team::Blue.base(4096);
        assert!(rx < 2048 && ry < 2048);
        assert!(bx > 2048 && by > 2048);
        assert!(bx < 4096 && by < 4096);
    }

    #[test]
    fn distance_is_squared_euclidean() {
        let u = Unit {
            id: 0,
            x: 3,
            y: 4,
            health: 100,
            state: state::IDLE,
            target: NO_TARGET,
            cooldown: 0,
            squad: 0,
            goal_x: 0,
            goal_y: 0,
            stamina: 100,
            damage_dealt: 0,
            kills: 0,
            morale: 50,
        };
        assert_eq!(u.dist2(0, 0), 25);
        assert_eq!(u.dist2(3, 4), 0);
    }

    #[test]
    fn attr_indexes_cover_13_columns() {
        assert_eq!(attr::COUNT, 13);
        assert_eq!(attr::MORALE, 12);
        assert_eq!(attr::X, 0);
    }
}
