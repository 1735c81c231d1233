//! NPB problem classes.

/// NAS problem class. Geometry per benchmark follows the NPB 3.x tables;
/// see each kernel module for its sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Sample (tiny) size.
    S,
    /// Workstation size.
    W,
    /// Class A.
    A,
    /// Class B.
    B,
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let letter = match self {
            Class::S => 'S',
            Class::W => 'W',
            Class::A => 'A',
            Class::B => 'B',
        };
        write!(f, "{letter}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters() {
        assert_eq!(Class::A.to_string(), "A");
        assert_eq!(format!("{}", Class::B), "B");
    }
}
